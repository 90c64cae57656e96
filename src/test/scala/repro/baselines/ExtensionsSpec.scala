package repro.baselines

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.TestUtil.planar

class ExtensionsSpec extends SparkSpec {

  private def items(rows: Seq[(Long, Array[Double], String)]): DataFrame = {
    import spark.implicits._
    rows.map { case (i, v, t) => (i, v.toSeq, t) }.toDF("id", "vec", "text")
  }

  private def pairs(df: DataFrame): Set[(Long, Long)] =
    df.collect().map(r => (r.getLong(0), r.getLong(1))).toSet

  private val matcher = EmbeddingThresholdMatcher(0.3)

  test("pairwise matches every table pair") {
    // entity triple (1, 11, 21) present in all three tables — pairwise finds
    // all three cross-table pairs.
    val t1 = items(Seq((1L, planar(0.00), "")))
    val t2 = items(Seq((11L, planar(0.02), "")))
    val t3 = items(Seq((21L, planar(0.04), "")))
    val out = pairs(Extensions.pairwise(Seq(t1, t2, t3), matcher))
    assert(out == Set((1L, 11L), (1L, 21L), (11L, 21L)))
  }

  test("chain only matches against the base, so it emits fewer pairs") {
    val t1 = items(Seq((1L, planar(0.00), "")))
    val t2 = items(Seq((11L, planar(0.02), "")))
    val t3 = items(Seq((21L, planar(0.04), "")))
    val out = pairs(Extensions.chain(Seq(t1, t2, t3), matcher))
    // step 1: 1–11; 11 matched → dropped. step 2: base {1} vs {21} → 1–21.
    assert(out == Set((1L, 11L), (1L, 21L)))
  }

  test("chain retains unmatched entities in the growing base") {
    val t1 = items(Seq((1L, planar(0.0), "")))
    val t2 = items(Seq((11L, planar(1.5), ""))) // no match → joins the base
    val t3 = items(Seq((21L, planar(1.52), ""))) // matches 11 from the base
    val out = pairs(Extensions.chain(Seq(t1, t2, t3), matcher))
    assert(out == Set((11L, 21L)))
  }

  test("pairwise with no matches anywhere returns empty") {
    val t1 = items(Seq((1L, planar(0.0), "")))
    val t2 = items(Seq((11L, planar(1.5), "")))
    assert(pairs(Extensions.pairwise(Seq(t1, t2), matcher)).isEmpty)
  }

  test("chain pair count never exceeds pairwise pair count on shared data") {
    val tabs = (0 until 4).map { s =>
      items((0 until 5).map(i => (s * 100L + i, planar(i * 0.5 + s * 0.01), "")))
    }
    val pw = pairs(Extensions.pairwise(tabs, matcher))
    val ch = pairs(Extensions.chain(tabs, matcher))
    assert(ch.size <= pw.size)
    assert(ch.nonEmpty && pw.nonEmpty)
  }
}
