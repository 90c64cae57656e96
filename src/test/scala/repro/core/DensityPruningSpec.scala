package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestUtil}
import repro.TestUtil.{embDf, planar}

class DensityPruningSpec extends SparkSpec {

  /** Items frame from (tupleId→members) plus embeddings for each member. */
  private def itemsOf(tuples: Seq[Seq[Long]]): DataFrame = {
    import spark.implicits._
    tuples.map(ms => (ms.min, ms.sorted)).toDF("id", "members")
  }

  private def kinds(items: DataFrame, emb: DataFrame, cfg: PruneConfig): Map[Long, String] =
    DensityPruning.classify(items, emb, cfg)
      .collect().map(r => r.getLong(1) -> r.getString(2)).toMap

  // Angles: euclidean dist between unit planar vectors = 2 sin(Δθ/2).
  private def ang(d: Double): Double = 2 * math.asin(d / 2)

  test("tight tuple: every entity is core (incl. self in the ε-count)") {
    val emb = embDf(spark, Seq(1L -> planar(0.0), 2L -> planar(0.01), 3L -> planar(0.02)))
    val k = kinds(itemsOf(Seq(Seq(1L, 2L, 3L))), emb, PruneConfig(eps = 0.5, minPts = 2))
    assert(k == Map(1L -> "core", 2L -> "core", 3L -> "core"))
  }

  test("paper Fig. 4 shape: far member of a chain-merged tuple is the outlier") {
    // e1,e2,e3 mutually close; e4 only close to e3's far side — beyond ε of
    // every core entity.
    val eps = 0.3
    val emb = embDf(spark, Seq(
      1L -> planar(0.0),
      2L -> planar(ang(0.1)),
      3L -> planar(ang(0.2)),
      4L -> planar(ang(0.2) + ang(0.45)),
    ))
    val k = kinds(itemsOf(Seq(Seq(1L, 2L, 3L, 4L))), emb, PruneConfig(eps, minPts = 2))
    assert(k(1L) == "core" && k(2L) == "core" && k(3L) == "core")
    assert(k(4L) == "outlier")
  }

  test("reachable: non-core within ε of a core entity survives") {
    // minPts=3: e1,e2,e3 tight (each sees 3 within ε incl. self) → core.
    // e4 sits within ε of e3 only → sees 2 (self+e3) < 3 → non-core, but a
    // core entity (e3) is within ε → reachable.
    val eps = 0.3
    val emb = embDf(spark, Seq(
      1L -> planar(0.0),
      2L -> planar(ang(0.05)),
      3L -> planar(ang(0.1)),
      4L -> planar(ang(0.1) + ang(0.28)),
    ))
    val k = kinds(itemsOf(Seq(Seq(1L, 2L, 3L, 4L))), emb, PruneConfig(eps, minPts = 3))
    assert(k(3L) == "core")
    assert(k(4L) == "reachable")
  }

  test("core uses strict < eps (Eq. 12), reachable allows = eps (Eq. 14)") {
    // Set ε to the *computed* pairwise distance so the boundary case is
    // exact: dist < ε is false, dist ≤ ε is true, bit-for-bit.
    val v1 = planar(0.0); val v2 = planar(ang(0.4))
    val eps = repro.embed.VecOps.euclideanDist(v1.toSeq, v2.toSeq)

    // Two entities exactly ε apart: neither is core → both outliers.
    val embA = embDf(spark, Seq(1L -> v1, 2L -> v2))
    val kA = kinds(itemsOf(Seq(Seq(1L, 2L))), embA, PruneConfig(eps, minPts = 2))
    assert(kA(1L) == "outlier" && kA(2L) == "outlier")

    // Add a tight neighbor on e1's far side (so it is NOT strictly within ε
    // of e2): e1/e5 become core; e2 at exactly ε from e1 becomes reachable.
    val embB = embDf(spark, Seq(1L -> v1, 5L -> planar(-ang(0.01)), 2L -> v2))
    val kB = kinds(itemsOf(Seq(Seq(1L, 2L, 5L))), embB, PruneConfig(eps, minPts = 2))
    assert(kB(1L) == "core" && kB(5L) == "core")
    assert(kB(2L) == "reachable")
  }

  test("prune removes outliers but keeps core + reachable as one tuple") {
    val eps = 0.3
    val emb = embDf(spark, Seq(
      1L -> planar(0.0), 2L -> planar(ang(0.1)), 3L -> planar(ang(0.2)),
      4L -> planar(ang(0.2) + ang(0.45))))
    val out = TestUtil.tupleSet(
      DensityPruning.prune(itemsOf(Seq(Seq(1L, 2L, 3L, 4L))), emb, PruneConfig(eps, 2)))
    assert(out == Set(Set(1L, 2L, 3L)))
  }

  test("tuple that prunes below 2 members disappears") {
    val emb = embDf(spark, Seq(1L -> planar(0.0), 2L -> planar(1.5)))
    val out = DensityPruning.prune(itemsOf(Seq(Seq(1L, 2L))), emb, PruneConfig(0.3, 2))
    assert(out.count() == 0)
  }

  test("single-member items are ignored by pruning") {
    val emb = embDf(spark, Seq(1L -> planar(0.0)))
    val out = DensityPruning.prune(itemsOf(Seq(Seq(1L))), emb, PruneConfig(0.9, 2))
    assert(out.count() == 0)
  }

  test("tuples are pruned independently (no cross-tuple neighbors)") {
    // Two tuples with members at the same location: if neighborhoods leaked
    // across tuples, 1/3 would make each other core. Within each tuple the
    // two members are far apart → all outliers.
    val emb = embDf(spark, Seq(
      1L -> planar(0.0), 2L -> planar(1.5),
      3L -> planar(0.0), 4L -> planar(1.5)))
    val out = DensityPruning.prune(itemsOf(Seq(Seq(1L, 2L), Seq(3L, 4L))), emb, PruneConfig(0.3, 2))
    assert(out.count() == 0)
  }

  test("larger eps rescues borderline members (sensitivity direction)") {
    val emb = embDf(spark, Seq(1L -> planar(0.0), 2L -> planar(ang(0.5))))
    val tight = DensityPruning.prune(itemsOf(Seq(Seq(1L, 2L))), emb, PruneConfig(0.3, 2))
    val loose = DensityPruning.prune(itemsOf(Seq(Seq(1L, 2L))), emb, PruneConfig(0.8, 2))
    assert(tight.count() == 0)
    assert(TestUtil.tupleSet(loose) == Set(Set(1L, 2L)))
  }

  test("oracle: per-entity strict-ε neighbor counts match DuckDB") {
    val emb = embDf(spark, Seq(
      1L -> planar(0.0), 2L -> planar(ang(0.1)), 3L -> planar(ang(0.2)), 4L -> planar(1.2)))
    val items = itemsOf(Seq(Seq(1L, 2L, 3L, 4L)))
    val mem = items.select(col("id") as "tid", explode(col("members")) as "eid").join(emb, Seq("eid"))
    val distDf = mem.select(col("tid"), col("eid") as "e1", col("vec") as "v1")
      .join(mem.select(col("tid"), col("eid") as "e2", col("vec") as "v2"), Seq("tid"))
      .withColumn("dist", repro.References.euclideanDistCol(col("v1"), col("v2")))
      .select("tid", "e1", "e2", "dist")
    val eps = 0.3
    val ours = distDf.filter(col("dist") < eps)
      .groupBy(col("tid"), col("e1")).agg(count("*") as "n")
      .select(col("tid"), col("e1"), col("n").cast("long") as "n")
    Oracle.assertEquivalent(
      ours,
      s"SELECT tid, e1, COUNT(*) AS n FROM d WHERE CAST(dist AS DOUBLE) < $eps GROUP BY tid, e1",
      "d" -> distDf,
    )
  }

  test("oracle: every entity's kind matches DuckDB on random tuples with duplicates and ties at eps") {
    // A small pool of vectors, drawn with replacement, so tuples hold exact
    // duplicates; ε is the computed distance between pool vectors 0 and 2,
    // so "dist == ε" rows occur; the zero vector is its own non-neighbour.
    val pool = Seq(planar(0.0), planar(ang(0.2)), planar(ang(0.5)), planar(ang(0.9)), planar(-ang(0.3)),
      new Array[Double](4))
    val eps = repro.embed.VecOps.euclideanDist(pool(0).toSeq, pool(2).toSeq)
    val tupleGen = org.scalacheck.Gen.choose(2, 7).flatMap(n =>
      org.scalacheck.Gen.listOfN(n, org.scalacheck.Gen.choose(0, pool.size - 1)))
    val cases = TestUtil.samples(org.scalacheck.Gen.listOfN(6, tupleGen), n = 4, seed = 21L)
      .map(ts => Seq(0, 2, 1) +: ts) // always one tuple with a pair exactly ε apart
    for ((tuples, minPts) <- cases.zip(Seq(2, 3, 2, 4))) {
      var next = 0L
      val members = tuples.map(_.map { p => next += 1; next -> p })
      val emb = embDf(spark, members.flatten.map { case (e, p) => e -> pool(p) })
      val items = itemsOf(members.map(_.map(_._1)))
      val mem = items.select(col("id") as "tid", explode(col("members")) as "eid").join(emb, Seq("eid"))
      val distDf = mem.select(col("tid"), col("eid") as "e1", col("vec") as "v1")
        .join(mem.select(col("tid"), col("eid") as "e2", col("vec") as "v2"), Seq("tid"))
        .withColumn("dist", repro.References.euclideanDistCol(col("v1"), col("v2")))
        .select("tid", "e1", "e2", "dist")
      assert(distDf.filter(col("dist") === eps).count() > 0)
      val e = s"CAST('$eps' AS DOUBLE)"
      Oracle.assertEquivalent(
        DensityPruning.classify(items, emb, PruneConfig(eps, minPts)),
        s"""WITH d AS (SELECT tid, e1, e2, CAST(dist AS DOUBLE) AS dist FROM dists),
           |core AS (SELECT tid, e1 AS eid, COUNT(*) FILTER (WHERE dist < $e) >= $minPts AS is_core
           |         FROM d GROUP BY tid, e1)
           |SELECT c.tid, c.eid,
           |  CASE WHEN c.is_core THEN 'core'
           |       WHEN EXISTS (SELECT 1 FROM d JOIN core k ON d.tid = k.tid AND d.e2 = k.eid
           |                    WHERE k.is_core AND d.tid = c.tid AND d.e1 = c.eid AND d.dist <= $e)
           |       THEN 'reachable'
           |       ELSE 'outlier' END AS kind
           |FROM core c""".stripMargin,
        "dists" -> distDf,
      )
    }
  }
}
