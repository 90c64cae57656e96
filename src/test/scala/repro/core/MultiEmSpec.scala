package repro.core

import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestUtil}
import repro.ann.AnnConfig
import repro.data.EmDataGen
import repro.eval.Metrics

/** End-to-end pipeline tests on a small generated Geo dataset. */
class MultiEmSpec extends SparkSpec {

  private lazy val ds = EmDataGen.geo(spark, scale = 0.15, seed = 101L)
  private lazy val gt = ds.gtTuples.localCheckpoint()

  private def cfg(m: Double = 0.45, eps: Double = 0.9, useEer: Boolean = true,
                  usePruning: Boolean = true, parallel: Boolean = false) =
    MultiEmConfig(
      useEer = useEer,
      gamma = 0.5,
      sampleRatio = 1.0,
      merge = MergeConfig(k = 1, m = m, ann = AnnConfig(exact = true), parallel = parallel),
      usePruning = usePruning,
      prune = PruneConfig(eps, 2),
    )

  private lazy val result = MultiEm.run(ds.tables, ds.attrs, cfg())

  test("pipeline produces non-empty tuple predictions") {
    assert(result.tuples.count() > 0)
  }

  test("predicted tuples have at least two members each") {
    assert(result.tuples.filter(size(col("members")) < 2).count() == 0)
  }

  test("no entity appears in two predicted tuples") {
    val exploded = result.tuples.select(explode(col("members")) as "eid")
    assert(exploded.count() == exploded.distinct().count())
  }

  test("predicted members are real entity ids") {
    val exploded = result.tuples.select(explode(col("members")) as "eid")
    val unknown = exploded.join(ds.df.select("eid"), Seq("eid"), "left_anti")
    assert(unknown.count() == 0)
  }

  test("pipeline beats a trivial all-singletons baseline on tuple F1") {
    val s = Metrics.tupleScores(result.tuples, gt)
    assert(s.f1 > 20.0, s"end-to-end tuple F1 unexpectedly low: $s")
  }

  test("pair-F1 is at least as high as tuple F1 (looser metric, Example 2)") {
    val t = Metrics.tupleScores(result.tuples, gt)
    val p = Metrics.pairScores(result.tuples, gt)
    assert(p.f1 >= t.f1 - 1e-9, s"tuple=$t pair=$p")
  }

  test("EER selects the name attribute on Geo (Table VII)") {
    assert(result.selectedAttrs == Seq("name"))
  }

  test("phase timings cover all four phases") {
    assert(result.phaseSeconds.keySet == Set("selection", "representation", "merging", "pruning"))
    assert(result.phaseSeconds.values.forall(_ >= 0.0))
  }

  test("w/o DP ablation returns the unpruned merged tuples") {
    val noDp = result.tuplesWithoutPruning
    // pruning only removes entities, so unpruned pair set ⊇ pruned pair set
    val prunedPairs = Metrics.pairsOf(result.tuples)
    val rawPairs = Metrics.pairsOf(noDp)
    assert(prunedPairs.join(rawPairs, Seq("a", "b"), "left_anti").count() == 0)
  }

  test("w/o EER run uses all attributes") {
    val noEer = MultiEm.run(ds.tables, ds.attrs, cfg(useEer = false))
    assert(noEer.selectedAttrs == ds.attrs)
  }

  test("parallel mode matches sequential predictions") {
    val par = MultiEm.run(ds.tables, ds.attrs, cfg(parallel = true))
    assert(TestUtil.tupleSet(par.tuples) == TestUtil.tupleSet(result.tuples))
  }

  test("pruning cannot increase the tuple count") {
    assert(result.tuples.count() <= result.tuplesWithoutPruning.count())
  }

  test("tuples and merged vector bits do not depend on the shuffle partition count") {
    val music = EmDataGen.music(spark, 75L)
    val keyed = cfg().copy(merge = MergeConfig(k = 1, m = 0.45, ann = AnnConfig(exact = false)))
    for ((d, c, mode) <- Seq((ds, cfg(), "exact"), (music, keyed, "keyed"))) {
      val runs = for (partitions <- Seq(1, 16, 64)) yield
        TestUtil.withConf(spark, "spark.sql.shuffle.partitions" -> partitions.toString,
          "spark.sql.adaptive.enabled" -> "false") {
          val r = MultiEm.run(d.tables, d.attrs, c)
          val merged = r.merged.select("id", "vec").collect()
            .map(row => row.getLong(0) -> row.getSeq[Double](1).map(java.lang.Double.doubleToRawLongBits)).toMap
          partitions -> (TestUtil.tupleSet(r.tuples), merged)
        }
      val (_, (tuples1, merged1)) = runs.head
      assert(tuples1.nonEmpty && merged1.nonEmpty, s"${d.name} $mode")
      for ((partitions, (tuples, merged)) <- runs.tail) {
        assert(tuples == tuples1, s"${d.name} $mode: tuples at $partitions partitions differ from 1")
        assert(merged == merged1, s"${d.name} $mode: merged vectors at $partitions partitions differ from 1")
      }
    }
  }

  test("duplicate eids across tables fail loudly") {
    import spark.implicits._
    val t0 = Seq((1L, "alpha"), (2L, "beta")).toDF("eid", "name")
    val t1 = Seq((2L, "beta"), (3L, "gamma")).toDF("eid", "name")
    val e = intercept[IllegalArgumentException](MultiEm.run(Seq(t0, t1), Seq("name"), cfg()))
    assert(e.getMessage.contains("duplicate eids"), e.getMessage)
  }
}
