package repro.eval

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestUtil}
import repro.TestUtil.{pairsDf, tuplesDf}

class MetricsSpec extends SparkSpec {

  test("perfect prediction scores 100/100/100 on tuples") {
    val t = tuplesDf(spark, Seq(Seq(1L, 2L), Seq(3L, 4L, 5L)))
    val s = Metrics.tupleScores(t, t)
    assert(s.p == 100.0 && s.r == 100.0 && s.f1 == 100.0)
  }

  test("tuple match requires exact set equality") {
    val pred = tuplesDf(spark, Seq(Seq(1L, 2L, 4L)))
    val gt = tuplesDf(spark, Seq(Seq(1L, 2L, 3L)))
    val s = Metrics.tupleScores(pred, gt)
    assert(s.p == 0.0 && s.r == 0.0 && s.f1 == 0.0)
  }

  test("member order does not affect tuple equality") {
    val pred = tuplesDf(spark, Seq(Seq(2L, 1L)))
    val gt = tuplesDf(spark, Seq(Seq(1L, 2L)))
    assert(Metrics.tupleScores(pred, gt).f1 == 100.0)
  }

  test("partial precision and recall compute correctly") {
    val pred = tuplesDf(spark, Seq(Seq(1L, 2L), Seq(7L, 8L)))
    val gt = tuplesDf(spark, Seq(Seq(1L, 2L), Seq(3L, 4L), Seq(5L, 6L), Seq(9L, 10L)))
    val s = Metrics.tupleScores(pred, gt)
    assert(math.abs(s.p - 50.0) < 1e-9)  // 1 of 2 predictions correct
    assert(math.abs(s.r - 25.0) < 1e-9)  // 1 of 4 gt tuples found
  }

  test("empty prediction gives zero scores, not NaN") {
    val pred = tuplesDf(spark, Seq.empty)
    val gt = tuplesDf(spark, Seq(Seq(1L, 2L)))
    val s = Metrics.tupleScores(pred, gt)
    assert(s.p == 0.0 && s.r == 0.0 && s.f1 == 0.0)
  }

  test("pairsOf expands a tuple to all unordered pairs") {
    val pairs = Metrics.pairsOf(tuplesDf(spark, Seq(Seq(1L, 2L, 3L))))
      .collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(pairs == Set((1L, 2L), (1L, 3L), (2L, 3L)))
  }

  test("pairsOf deduplicates pairs shared by overlapping tuples") {
    val pairs = Metrics.pairsOf(tuplesDf(spark, Seq(Seq(1L, 2L), Seq(1L, 2L, 3L))))
    assert(pairs.count() == 3)
  }

  test("pairsOf sorts unsorted members and skips a repeated eid") {
    import spark.implicits._
    val pairs = Metrics.pairsOf(Seq(Seq(3L, 1L, 2L, 1L), Seq(5L, 4L)).toDF("members"))
    assert(pairs.collect().map(r => (r.getLong(0), r.getLong(1))).toSet ==
      Set((1L, 2L), (1L, 3L), (2L, 3L), (4L, 5L)))
    assert(pairs.count() == 4)
  }

  test("paper Example 2: t=(1,2,3) vs p=(1,2,4) gives pair-F1 = 1/3") {
    val pred = tuplesDf(spark, Seq(Seq(1L, 2L, 4L)))
    val gt = tuplesDf(spark, Seq(Seq(1L, 2L, 3L)))
    val s = Metrics.pairScores(pred, gt)
    assert(math.abs(s.p - 100.0 / 3) < 1e-6)
    assert(math.abs(s.r - 100.0 / 3) < 1e-6)
    assert(math.abs(s.f1 - 100.0 / 3) < 1e-6)
  }

  test("oracle: pair expansion matches a DuckDB self-join") {
    import spark.implicits._
    val membership = Seq((1L, 1L), (1L, 2L), (1L, 3L), (2L, 7L), (2L, 9L))
      .toDF("tid", "eid")
    val tuples = membership.groupBy("tid")
      .agg(sort_array(collect_list("eid")) as "members").select("members")
    Oracle.assertEquivalent(
      Metrics.pairsOf(tuples),
      """SELECT CAST(m1.eid AS BIGINT) AS a, CAST(m2.eid AS BIGINT) AS b
        |FROM mem m1 JOIN mem m2
        |  ON m1.tid = m2.tid AND CAST(m1.eid AS BIGINT) < CAST(m2.eid AS BIGINT)""".stripMargin,
      "mem" -> membership,
    )
  }

  // --------------------------------------------------------- Algorithm 5 --

  test("Algorithm 5: isolated pair becomes one tuple") {
    val t = TestUtil.tupleSet(Metrics.pairsToTuples(pairsDf(spark, Seq((1L, 2L)))))
    assert(t == Set(Set(1L, 2L)))
  }

  test("Algorithm 5 is NOT transitive closure: a-b, b-c yields three tuples") {
    // tuple(a)={a,b}, tuple(b)={a,b,c}, tuple(c)={b,c} — the paper's
    // transitive-conflict shape.
    val t = TestUtil.tupleSet(Metrics.pairsToTuples(pairsDf(spark, Seq((1L, 2L), (2L, 3L)))))
    assert(t == Set(Set(1L, 2L), Set(1L, 2L, 3L), Set(2L, 3L)))
  }

  test("Algorithm 5 deduplicates identical tuples from both endpoints") {
    // a-b only: tuple(a) = tuple(b) = {a,b} → one tuple.
    val t = Metrics.pairsToTuples(pairsDf(spark, Seq((1L, 2L), (2L, 1L))))
    assert(t.count() == 1)
  }

  test("Algorithm 5 on a triangle gives the single closed tuple") {
    val t = TestUtil.tupleSet(Metrics.pairsToTuples(
      pairsDf(spark, Seq((1L, 2L), (2L, 3L), (1L, 3L)))))
    assert(t == Set(Set(1L, 2L, 3L)))
  }

  test("Algorithm 5 ignores self-pairs") {
    val t = Metrics.pairsToTuples(pairsDf(spark, Seq((1L, 1L))))
    assert(t.count() == 0)
  }

  test("Algorithm 5 star: the hub aggregates all its matches") {
    val t = TestUtil.tupleSet(Metrics.pairsToTuples(
      pairsDf(spark, Seq((5L, 1L), (5L, 2L), (5L, 3L)))))
    assert(t.contains(Set(1L, 2L, 3L, 5L))) // tuple(5)
    assert(t.contains(Set(5L, 1L)) && t.contains(Set(5L, 2L)) && t.contains(Set(5L, 3L)))
  }
}
