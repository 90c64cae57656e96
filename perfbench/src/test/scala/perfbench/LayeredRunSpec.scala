package perfbench

import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.core.MultiEm

/** The traced, layer-by-layer run must reproduce `MultiEm.run` exactly,
  * on each kind of workload the benchmark defines, at a tiny scale.
  */
class LayeredRunSpec extends AnyFunSuite with BeforeAndAfterAll {

  lazy val spark: SparkSession = Main.session()

  override def afterAll(): Unit = spark.stop()

  private def tiny(dataset: String, scale: Double, exact: Boolean, parallel: Boolean) =
    Workload(dataset, scale, seed = 3L, m = 0.45, eps = 0.9, gamma = 0.45, sampleRatio = 0.5,
      exact = exact, parallel = parallel)

  private def check(w: Workload): Unit = {
    val ds = w.generate(spark)
    val tables = ds.tables.map(_.localCheckpoint())
    val cfg = w.config
    val expected = Bench.digest(MultiEm.run(tables, ds.attrs, cfg).tuples)

    val tr = new Tracer
    val res = tr.span("pipeline", -1)(root => LayeredRun.run(tables, ds.attrs, cfg, tr, root))
    assert(Bench.digest(res.tuples) === expected)
    assert(expected._2 > 0, "the tiny input should still produce tuples")

    // One merge per pair of tables, each with its own mutual-pairs span.
    val names = tr.spans.map(_.name)
    assert(res.steps.size === ds.nSources - 1)
    assert(names.count(_ == "merge.two_table") === ds.nSources - 1)
    assert(names.count(_ == "ann.mutual_pairs") === ds.nSources - 1)
    assert(Seq("eer.select", "embed.explode", "embed.weights", "embed.vectors", "embed.keys", "prune.prune")
      .forall(names.contains))

    val counts = WorkCounts(res, ds.attrs, cfg)
    assert(counts("merge.matched_items") === 2 * counts("ann.mutual_pairs")) // k = 1: one-to-one pairs
    assert(counts("merge.passthrough_items") === counts("merge.items_in") - counts("merge.matched_items"))
    assert(counts("ann.candidate_pairs") >= counts("ann.mutual_pairs"))
    assert(counts("prune.core") + counts("prune.reachable") + counts("prune.outlier") <= counts("prune.pair_rows"))
    assert(counts("prune.tuples_out") === expected._2.toDouble)
  }

  test("exact ANN, sequential merges (geo)") { check(tiny("geo", 0.03, exact = true, parallel = false)) }
  test("keyed ANN, sequential merges (music)") { check(tiny("music", 0.006, exact = false, parallel = false)) }
  test("keyed ANN, parallel merges (shopee)") { check(tiny("shopee", 0.004, exact = false, parallel = true)) }

  test("keyed candidates count distinct pairs sharing a key; the largest bucket is the biggest key's product") {
    import spark.implicits._
    val a = Seq((1L, Seq(10L, 11L)), (2L, Seq(10L)), (3L, Seq(12L))).toDF("id", "keys")
    val b = Seq((5L, Seq(10L, 11L)), (6L, Seq(10L)), (7L, Seq(13L))).toDF("id", "keys")
    // key 10: {1,2} x {5,6} = 4 pairs; key 11: (1,5), already counted.
    assert(WorkCounts.candidates(a, b, exact = false) === ((4L, 4L)))
    assert(WorkCounts.candidates(a, b, exact = true) === ((9L, 9L)))
  }
}
