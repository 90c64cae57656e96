package repro.expts

import repro.SparkSpec
import repro.core.MultiEm
import repro.data.EmDataGen
import repro.eval.Metrics

/** Small-scale end-to-end comparison reproducing the *shape* of Table IV:
  * MultiEM above the unsupervised two-table extensions, chain ≥ pairwise,
  * everything evaluated through the same Algorithm 5 + exact-tuple metrics.
  */
class IntegrationSpec extends SparkSpec {

  private lazy val bd = BenchDataset(EmDataGen.geo(spark, scale = 0.12, seed = 77L), 3054, "test")
  private lazy val prep = Harness.prepBaselines(bd)
  private lazy val tuned = Harness.tuneMultiEm(bd.ds, sampleRatio = 1.0)
  private lazy val multi = Harness.runMultiEmAll(bd, tuned, sampleRatio = 1.0)
  private lazy val autoFjPw = Harness.runTwoTableBaseline("AutoFJ", "pw", prep, bd.ds.name)

  test("prepBaselines embeds every entity") {
    assert(prep.items.count() == bd.ds.df.count())
    assert(prep.tables.size == bd.ds.nSources)
  }

  test("MultiEM full run reports all three variants") {
    assert(multi.map(_.method).toSet == Set("MultiEM", "MultiEM w/o EER", "MultiEM w/o DP"))
  }

  test("MultiEM outperforms the unsupervised pairwise baseline on tuple F1") {
    val multiF1 = multi.find(_.method == "MultiEM").get.tuple.get.f1
    val autoF1 = autoFjPw.tuple.get.f1
    assert(multiF1 > autoF1, s"MultiEM=$multiF1 AutoFJ(pw)=$autoF1")
  }

  test("MultiEM scores a solid absolute tuple F1 on Geo-like data") {
    assert(multi.find(_.method == "MultiEM").get.tuple.get.f1 > 40.0)
  }

  test("supervised proxies emit pairs and tuples end to end") {
    val o = Harness.runTwoTableBaseline("Ditto", "c", prep, bd.ds.name)
    assert(o.note.isEmpty && o.tuple.nonEmpty && o.pair.nonEmpty)
    assert(o.pair.get.f1 > 0.0)
  }

  test("ALMSER proxy runs end to end on a small dataset") {
    val o = Harness.runAlmser(prep, bd.ds.name)
    assert(o.note.isEmpty && o.pair.get.f1 > 0.0)
  }

  test("MSCD-HAC runs under its gate and produces tuples") {
    val o = Harness.runHac(prep, bd.ds.name)
    assert(o.note.isEmpty && o.tuple.nonEmpty)
  }

  test("pair-F1 exceeds tuple F1 for pairwise baselines (transitive conflicts)") {
    val o = autoFjPw
    assert(o.pair.get.f1 >= o.tuple.get.f1 - 1e-9,
      s"tuple=${o.tuple.get} pair=${o.pair.get}")
  }

  test("phase breakdown reports all phases with positive total") {
    val phases = MultiEm.run(bd.ds.tables, bd.ds.attrs, Harness.multiEmConfig(bd.ds.df.count(), tuned, sampleRatio = 1.0)).phaseSeconds
    assert(phases.keySet == Set("selection", "representation", "merging", "pruning"))
    assert(phases.values.sum > 0.0)
  }
}
