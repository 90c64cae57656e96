package repro.expts

import repro.SparkSpec
import repro.core.MultiEm
import repro.data.EmDataGen
import repro.eval.Scores

class HarnessSpec extends SparkSpec {

  test("fmtTime formats seconds, minutes and hours like the paper") {
    assert(Harness.fmtTime(6.13) == "6.1s")
    assert(Harness.fmtTime(34.55) == "34.6s")
    assert(Harness.fmtTime(378.0) == "6.3m")
    assert(Harness.fmtTime(4680.0) == "1.3h")
  }

  test("measure returns the thunk result and a plausible duration") {
    val (r, secs, peak) = Harness.measure { Thread.sleep(120); 42 }
    assert(r == 42)
    assert(secs >= 0.1 && secs < 5.0)
    assert(peak > 0.0)
  }

  test("annFor switches to blocking-key candidates above the exact gate") {
    assert(Harness.annFor(1000).exact)
    assert(Harness.annFor(10000).exact)
    assert(!Harness.annFor(10001).exact)
  }

  test("RunOutcome gated cells render the paper's symbols") {
    val gated = RunOutcome("X", "D", None, None, None, None, "\\")
    assert(gated.cellF1 == "\\" && gated.cellTime == "\\" && gated.cellMem == "\\")
    val oom = RunOutcome("X", "D", None, None, None, None, "-")
    assert(oom.cellPairF1 == "-")
  }

  test("RunOutcome formats score cells to one decimal") {
    val o = RunOutcome("X", "D", Some(Scores(12.345, 1, 1)), Some(Scores(1, 1, 98.76)), Some(83.0), Some(1.234))
    assert(o.cellF1 == "1.0")
    assert(o.cellPairF1 == "98.8")
    assert(o.cellTime == "1.4m")
    assert(o.cellMem == "1.2G")
  }

  test("baseline gates mirror the paper's feasibility matrix") {
    assert(Harness.AutoFjGate < Harness.SupervisedGate)
    assert(Harness.HacGate < Harness.AutoFjGate)
    // At repro scale, Music-200 (~39k) must gate out AutoFJ/ALMSER/HAC but
    // not the supervised proxies, as in Tables IV/V; Music-2000 and Person
    // must gate out everything.
    val m200 = 39000L; val m2000 = 77000L
    assert(m200 > Harness.AutoFjGate && m200 > Harness.AlmserGate && m200 > Harness.HacGate)
    assert(m200 <= Harness.SupervisedGate)
    assert(m2000 > Harness.SupervisedGate)
  }

  test("gated baseline returns the symbol without running") {
    val bd = Datasets.geo(spark)
    val prep = Harness.prepBaselines(bd).copy(entities = Harness.SupervisedGate + 1)
    val o = Harness.runTwoTableBaseline("Ditto", "pw", prep, "Geo")
    assert(o.note == "\\" && o.tuple.isEmpty && o.seconds.isEmpty)
    val o2 = Harness.runTwoTableBaseline("AutoFJ", "pw", prep.copy(entities = Harness.AutoFjGate + 1), "Geo")
    assert(o2.note == "-")
    val o3 = Harness.runHac(prep.copy(entities = Harness.HacGate + 1), "Geo")
    assert(o3.note == "\\")
    val o4 = Harness.runAlmser(prep.copy(entities = Harness.AlmserGate + 1), "Geo")
    assert(o4.note == "\\")
  }

  test("tuneMultiEm returns grid members") {
    val ds = EmDataGen.geo(spark, scale = 0.05, seed = 3L)
    val t = Harness.tuneMultiEm(ds, sampleRatio = 1.0, mGrid = Seq(0.3, 0.5), epsGrid = Seq(0.8))
    assert(Seq(0.3, 0.5).contains(t.m))
    assert(t.eps == 0.8)
  }

  test("tuneMultiEm tunes on the attributes the tuned MultiEm run selects") {
    val ds = EmDataGen.geo(spark, scale = 0.05, seed = 3L)
    val r = Harness.sampleRatioFor(ds.name)
    val t = Harness.tuneMultiEm(ds, r, mGrid = Seq(0.45), epsGrid = Seq(0.9))
    val run = MultiEm.run(ds.tables, ds.attrs, Harness.multiEmConfig(ds.df.count(), t, r))
    assert(t.attrs.nonEmpty)
    assert(run.selectedAttrs == t.attrs)
  }
}
