package repro.ann

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestUtil}
import repro.TestUtil.{planar, v, vecDf}
import repro.baselines.{EmbeddingThresholdMatcher, Extensions}
import repro.core.MultiEm
import repro.data.EmDataGen
import repro.embed.{EmbedConfig, VecOps}

class MutualTopKSpec extends SparkSpec {

  private def pairsOf(df: DataFrame): Set[(Long, Long)] =
    df.select("lid", "rid").collect().map(r => (r.getLong(0), r.getLong(1))).toSet

  test("mutual top-1: unique nearest neighbors match") {
    val left = vecDf(spark, Seq(1L -> planar(0.0), 2L -> planar(1.5)))
    val right = vecDf(spark, Seq(10L -> planar(0.05), 20L -> planar(1.45)))
    val out = pairsOf(MutualTopK.mutualPairs(left, right, k = 1, m = 0.5))
    assert(out == Set((1L, 10L), (2L, 20L)))
  }

  test("mutual top-1 drops non-reciprocal pairs") {
    // l1 is nearest to r1; r1's nearest is l2 → (l1, r1) must not match.
    val left = vecDf(spark, Seq(1L -> planar(0.30), 2L -> planar(0.05)))
    val right = vecDf(spark, Seq(10L -> planar(0.10)))
    val out = pairsOf(MutualTopK.mutualPairs(left, right, k = 1, m = 1.0))
    assert(out == Set((2L, 10L)))
  }

  test("distance threshold m filters far pairs even when mutual") {
    val left = vecDf(spark, Seq(1L -> planar(0.0)))
    val right = vecDf(spark, Seq(10L -> planar(1.0))) // cos dist 1-cos(1) ≈ 0.46
    assert(pairsOf(MutualTopK.mutualPairs(left, right, 1, m = 0.3)).isEmpty)
    assert(pairsOf(MutualTopK.mutualPairs(left, right, 1, m = 0.5)) == Set((1L, 10L)))
  }

  test("k=2 admits second-ranked reciprocal pairs") {
    val left = vecDf(spark, Seq(1L -> planar(0.0)))
    val right = vecDf(spark, Seq(10L -> planar(0.05), 20L -> planar(0.10)))
    val k1 = pairsOf(MutualTopK.mutualPairs(left, right, 1, m = 1.0))
    val k2 = pairsOf(MutualTopK.mutualPairs(left, right, 2, m = 1.0))
    assert(k1 == Set((1L, 10L)))
    assert(k2 == Set((1L, 10L), (1L, 20L)))
  }

  test("empty inputs produce empty output") {
    val left = vecDf(spark, Seq(1L -> planar(0.0)))
    val empty = vecDf(spark, Seq.empty[(Long, Array[Double])])
    assert(pairsOf(MutualTopK.mutualPairs(left, empty, 1, 1.0)).isEmpty)
    assert(pairsOf(MutualTopK.mutualPairs(empty, left, 1, 1.0)).isEmpty)
  }

  test("reported dist equals exact cosine distance") {
    val left = vecDf(spark, Seq(1L -> planar(0.0)))
    val right = vecDf(spark, Seq(10L -> planar(0.7)))
    val row = MutualTopK.mutualPairs(left, right, 1, 1.0).collect()(0)
    assert(math.abs(row.getDouble(2) - (1.0 - math.cos(0.7))) < 1e-9)
  }

  test("oracle: exact mutual top-k agrees with DuckDB window formulation") {
    // 8 vs 7 points at assorted angles; compare against a SQL mutual top-k
    // over the same distance table.
    val ls = (0 until 8).map(i => (i.toLong, planar(i * 0.35)))
    val rs = (0 until 7).map(j => (100L + j, planar(j * 0.4 + 0.07)))
    val left = vecDf(spark, ls); val right = vecDf(spark, rs)
    val distDf = left.crossJoin(
      right.select(col("id") as "rid", col("vec") as "rvec"))
      .select(col("id") as "lid", col("rid"),
        VecOps.cosineDistCol(col("vec"), col("rvec")) as "dist")
    val k = 2; val m = 0.6
    val ours = MutualTopK.mutualPairs(left, right, k, m).select("lid", "rid")
    Oracle.assertEquivalent(
      ours,
      s"""WITH ranked AS (
         |  SELECT lid, rid,
         |         row_number() OVER (PARTITION BY lid ORDER BY CAST(dist AS DOUBLE), CAST(rid AS BIGINT)) rl,
         |         row_number() OVER (PARTITION BY rid ORDER BY CAST(dist AS DOUBLE), CAST(lid AS BIGINT)) rr
         |  FROM d WHERE CAST(dist AS DOUBLE) <= $m
         |)
         |SELECT lid, rid FROM ranked WHERE rl <= $k AND rr <= $k""".stripMargin,
      "d" -> distDf,
    )
  }

  /** (id, vec, keys) frame for keyed-candidate tests. */
  private def keyedDf(rows: Seq[(Long, Array[Double], Seq[Long])]) = {
    import spark.implicits._
    rows.map { case (i, v, ks) => (i, v.toSeq, ks) }.toDF("id", "vec", "keys")
  }

  test("keyed mode equals exact mode when true pairs share a blocking key") {
    val rnd = new scala.util.Random(5)
    def jitter(base: Array[Double]): Array[Double] =
      VecOps.normalize(base.map(x => x + rnd.nextGaussian() * 0.02))
    val bases = (0 until 12).map(_ => VecOps.normalize(Array.fill(16)(rnd.nextGaussian())))
    // cluster i carries keys {i, 1000+i} — duplicates share both
    val left = keyedDf(bases.zipWithIndex.map { case (b, i) => (i.toLong, jitter(b), Seq(i.toLong, 1000L + i)) })
    val right = keyedDf(bases.zipWithIndex.map { case (b, i) => (100L + i, jitter(b), Seq(i.toLong, 1000L + i)) })
    val exact = pairsOf(MutualTopK.mutualPairs(left, right, 1, 0.2, AnnConfig(exact = true)))
    val keyed = pairsOf(MutualTopK.mutualPairs(left, right, 1, 0.2, AnnConfig(exact = false)))
    assert(exact.nonEmpty)
    assert(keyed == exact, s"keyed=$keyed exact=$exact")
  }

  test("keyed mode only proposes pairs that share a key (approximation contract)") {
    val a = keyedDf(Seq((1L, planar(0.0), Seq(7L)), (2L, planar(0.02), Seq(8L))))
    val b = keyedDf(Seq((10L, planar(0.01), Seq(7L)), (20L, planar(0.03), Seq(9L))))
    val out = pairsOf(MutualTopK.mutualPairs(a, b, 1, 1.0, AnnConfig(exact = false)))
    // (1,10) share key 7; (2,20) are close but share no key → missed
    assert(out == Set((1L, 10L)))
  }

  test("keyed mode still re-ranks candidates by exact distance and m") {
    // both right items share the left item's key, only the nearer survives
    // mutual top-1; a far shared-key pair is dropped by m.
    val a = keyedDf(Seq((1L, planar(0.0), Seq(7L))))
    val b = keyedDf(Seq((10L, planar(0.05), Seq(7L)), (20L, planar(1.8), Seq(7L))))
    val out = pairsOf(MutualTopK.mutualPairs(a, b, 2, 0.5, AnnConfig(exact = false)))
    assert(out == Set((1L, 10L)))
  }

  test("keyed mode deduplicates multi-key collisions") {
    val a = keyedDf(Seq((1L, planar(0.0), Seq(7L, 8L))))
    val b = keyedDf(Seq((10L, planar(0.02), Seq(7L, 8L))))
    val out = MutualTopK.mutualPairs(a, b, 1, 1.0, AnnConfig(exact = false))
    assert(out.count() == 1)
  }

  test("identical point sets produce the identity matching") {
    val pts = (0 until 6).map(i => (i.toLong, planar(i * 0.5)))
    val left = vecDf(spark, pts)
    val right = vecDf(spark, pts.map { case (i, p) => (100L + i, p) })
    val out = pairsOf(MutualTopK.mutualPairs(left, right, 1, 0.1))
    assert(out == pts.map { case (i, _) => (i, 100L + i) }.toSet)
  }

  // ----------------------------------------------------------- by source --

  private val byPair = EmbeddingThresholdMatcher(0.3)

  private def abPairs(df: DataFrame): Set[(Long, Long)] =
    df.collect().map(r => (r.getLong(0), r.getLong(1))).toSet

  test("by-source pairs equal the per-pair path (exact mode)") {
    import spark.implicits._
    val rows = for (s <- 0 until 3; i <- 0 until 6)
      yield (s * 100L + i, s, planar(i * 0.45 + s * 0.015).toSeq, "")
    val itemsDf = rows.toDF("id", "source", "vec", "text")
    val tables = (0 until 3).map(s =>
      itemsDf.filter(col("source") === s).select("id", "vec", "text"))
    val perPair = abPairs(Extensions.pairwise(tables, byPair))
    val bySource = MutualTopK.mutualPairsBySource(itemsDf, k = 1, m = 0.3, AnnConfig(exact = true))
    assert(pairsOf(bySource) == perPair)
  }

  test("by-source pairs order sources (lid from the lower source id)") {
    import spark.implicits._
    val itemsDf = Seq(
      (5L, 1, planar(0.0).toSeq, ""),
      (3L, 0, planar(0.02).toSeq, "")).toDF("id", "source", "vec", "text")
    val out = pairsOf(MutualTopK.mutualPairsBySource(itemsDf, 1, 0.3, AnnConfig(exact = true)))
    assert(out == Set((3L, 5L)))
  }

  test("by-source pairs equal the per-pair path (keyed mode, generated Geo and Music-20)") {
    val keyed = AnnConfig(exact = false)
    for (ds <- Seq(EmDataGen.geo(spark, scale = 0.05), EmDataGen.music(spark, 60L))) {
      // The baselines' representation step, with blocking keys.
      val emb = MultiEm.representWithKeys(ds.df, ds.attrs, EmbedConfig(), keyed)
      val items = ds.df.select(col("eid") as "id", col("source"))
        .join(emb.withColumnRenamed("eid", "id"), Seq("id"))
        .localCheckpoint()
      val tables = (0 until ds.nSources).map(s =>
        items.filter(col("source") === s).select("id", "vec", "keys"))
      val perPair = abPairs(Extensions.pairwise(tables, EmbeddingThresholdMatcher(0.6, keyed)))
      val bySource = pairsOf(MutualTopK.mutualPairsBySource(items, 1, 0.6, keyed))
      assert(bySource.nonEmpty, ds.name)
      assert(bySource == perPair, ds.name)
    }
  }
}
