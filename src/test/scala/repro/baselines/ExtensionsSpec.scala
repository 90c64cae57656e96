package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.SparkSpec
import repro.TestUtil.planar

class ExtensionsSpec extends SparkSpec {

  private def items(rows: Seq[(Long, Array[Double], String)]): DataFrame = {
    import spark.implicits._
    rows.map { case (i, v, t) => (i, v.toSeq, t) }.toDF("id", "vec", "text")
  }

  /** (id, source, vec, text) frame of entities at planar angles. */
  private def tagged(rows: Seq[(Long, Int, Double, String)]): DataFrame = {
    import spark.implicits._
    rows.map { case (i, s, a, t) => (i, s, planar(a).toSeq, t) }.toDF("id", "source", "vec", "text")
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

  test("bySource applies each matcher's rule as matchPairs and pairwise do") {
    // 1 ties between 11 and 12 (±0.1 rad; the lower id wins); 2 and 13 have
    // equal vectors but disjoint texts; 3 and 14 are 0.5 rad apart. Mutual
    // top-1 distances: (1,11) ≈ 0.005, (2,13) = 0, (3,14) ≈ 0.122.
    val two = tagged(Seq(
      (1L, 0, 0.0, "red apple"), (2L, 0, 1.0, "blue car"), (3L, 0, 2.0, "green tree"),
      (11L, 1, 0.1, "red apple"), (12L, 1, -0.1, "red apple"), (13L, 1, 1.0, "yellow boat"),
      (14L, 1, 2.5, "green tree")))
    def table(items: DataFrame, s: Int): DataFrame = items.filter(col("source") === s)
    val expected = Seq(
      SupervisedMatcher("Ditto", 0.2, "cos") -> Set((1L, 11L), (2L, 13L), (3L, 14L)),
      // The blend 0.5·dist + 0.5·jaccard scores (2,13) at 0.5 > 0.3.
      SupervisedMatcher("PromptEM", 0.3, "cos+jac") -> Set((1L, 11L), (3L, 14L)),
      // The largest gap (0.005 → 0.122) puts the threshold at ≈ 0.064.
      AutoFJLite() -> Set((1L, 11L), (2L, 13L)))
    for ((m, want) <- expected) {
      assert(pairs(Extensions.bySource(two, m)) == want, m.name)
      assert(pairs(m.matchPairs(table(two, 0), table(two, 1))) == want, m.name)
    }
    val three = two.unionByName(tagged(Seq((21L, 2, 0.05, "red apple"), (22L, 2, 2.1, "green"))))
    for (m <- Seq(EmbeddingThresholdMatcher(0.3), SupervisedMatcher("Ditto", 0.2, "cos"))) {
      val pw = pairs(Extensions.pairwise((0 to 2).map(table(three, _)), m))
      assert(pw.exists(_._2 > 20L), m.name)
      assert(pairs(Extensions.bySource(three, m)) == pw, m.name)
    }
  }
}
