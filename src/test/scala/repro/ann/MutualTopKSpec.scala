package repro.ann

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, References, SparkSpec, TestUtil}
import repro.TestUtil.{planar, v, vecDf, withConf}
import repro.baselines.EmbeddingThresholdMatcher
import repro.core.{AttributeSelection, MergeConfig, Merging, MultiEm}
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
    val perPair = abPairs(References.pairwise(tables, byPair))
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
      val perPair = abPairs(References.pairwise(tables, EmbeddingThresholdMatcher(0.6, keyed)))
      val bySource = pairsOf(MutualTopK.mutualPairsBySource(items, 1, 0.6, keyed))
      assert(bySource.nonEmpty, ds.name)
      assert(bySource == perPair, ds.name)
    }
  }

  // ---------------------------------------------------------- the kernel --

  private def item(id: Long, vec: Array[Double], keys: Long*) = MutualTopK.Item(id, vec, keys)

  test("kernel: an empty side gives no pairs") {
    val one = IndexedSeq(item(1L, planar(0.0), 7L))
    for (exact <- Seq(true, false)) {
      assert(MutualTopK.mutualTopK(one, IndexedSeq.empty, 1, 2.0, exact).isEmpty)
      assert(MutualTopK.mutualTopK(IndexedSeq.empty, one, 1, 2.0, exact).isEmpty)
    }
  }

  test("kernel: k larger than the candidate count keeps every candidate within m") {
    val l = IndexedSeq(item(1L, planar(0.0)), item(2L, planar(0.1)))
    val r = IndexedSeq(item(10L, planar(0.05)), item(20L, planar(0.2)), item(30L, planar(3.0)))
    val out = MutualTopK.mutualTopK(l, r, 5, 0.5, exact = true)
    assert(out.map(p => (p._1, p._2)).toSet == Set((1L, 10L), (1L, 20L), (2L, 10L), (2L, 20L)))
  }

  test("kernel: a distance exactly equal to m is kept") {
    val (a, b) = (planar(0.0), planar(0.7))
    val d = VecOps.cosineDist(a, b)
    val l = IndexedSeq(item(1L, a)); val r = IndexedSeq(item(10L, b))
    assert(MutualTopK.mutualTopK(l, r, 1, d, exact = true) == Seq((1L, 10L, d)))
    assert(MutualTopK.mutualTopK(l, r, 1, math.nextDown(d), exact = true).isEmpty)
  }

  test("kernel: all-equal distances are broken by the smaller partner id") {
    // Orthogonal axes: every left × right distance is exactly 1.
    val e = (0 until 4).map(i => { val x = new Array[Double](4); x(i) = 1.0; x })
    val l = IndexedSeq(item(5L, e(0)), item(3L, e(1)))
    val r = IndexedSeq(item(30L, e(2)), item(10L, e(3)), item(20L, e(2)))
    assert(MutualTopK.mutualTopK(l, r, 1, 1.0, exact = true) == Seq((3L, 10L, 1.0)))
    assert(MutualTopK.mutualTopK(l, r, 2, 1.0, exact = true).map(p => (p._1, p._2)).toSet ==
      Set((3L, 10L), (3L, 20L), (5L, 10L), (5L, 20L)))
  }

  test("kernel: a keyed item whose keys hit nothing gets no pairs") {
    val l = IndexedSeq(item(1L, planar(0.0), 99L), item(2L, planar(0.5), 7L, 7L), item(3L, planar(0.0)))
    val r = IndexedSeq(item(10L, planar(0.0), 7L, 8L))
    assert(MutualTopK.mutualTopK(l, r, 1, 2.0, exact = false) == Seq((2L, 10L, VecOps.cosineDist(planar(0.5), planar(0.0)))))
    assert(MutualTopK.mutualTopK(l, r, 1, 2.0, exact = true).map(_._1) == Seq(1L))
  }

  test("grouped kernel equals the windowed reference on random cases, every entry and mode") {
    import spark.implicits._
    def axis(i: Int) = { val x = new Array[Double](4); x(i) = 1.0; x }
    // A small pool, drawn with repetition: equal vectors and orthogonal axes
    // give exact distance ties, and the zero vector is at distance 1 from all.
    val pool = IndexedSeq(axis(0), axis(1), axis(2), axis(3), planar(0.2), planar(0.5), v(1, 1, 0, 0),
      v(1, 0, 1, 0), v(1, 1, 1, 1), new Array[Double](4))
    val rnd = new scala.util.Random(14)
    var pairs = 0
    var merged = 0
    withConf(spark, "spark.sql.shuffle.partitions" -> "1", "spark.sql.codegen.wholeStage" -> "false") {
      for (c <- 0 until 50) {
        val nTables = 2 + rnd.nextInt(4)
        val ids = rnd.shuffle((0L until 1000L).toVector)
        val rows = for (t <- 0 until nTables; _ <- 0 until rnd.nextInt(13)) yield
          (t, pool(rnd.nextInt(pool.size)).toSeq, Seq.fill(rnd.nextInt(4))(rnd.nextInt(5).toLong))
        val items = rows.zip(ids).map { case ((t, vec, keys), id) => (t, t, id, vec, keys) }
          .toDF("t", "source", "id", "vec", "keys").localCheckpoint()
        def table(t: Int) = items.filter(col("t") === t).select("id", "vec", "keys")
        val k = 1 + rnd.nextInt(3)
        val m = Seq(0.05, 0.45, 2.0)(rnd.nextInt(3))
        for (exact <- Seq(true, false)) {
          val cfg = AnnConfig(exact = exact)
          val clue = s"case $c: tables=$nTables k=$k m=$m exact=$exact"
          val cols = Seq("lid", "rid", "dist")
          val want = Seq(
            References.mutualPairs(table(0), table(1), k, m, cfg).select(cols.map(col): _*),
            References.mutualPairsBySource(items, k, m, cfg).select((cols :+ "lsource" :+ "rsource").map(col): _*))
          val got = Seq(
            MutualTopK.mutualPairs(table(0), table(1), k, m, cfg),
            MutualTopK.mutualPairsBySource(items, k, m, cfg))
          for ((w, g) <- want.zip(got)) assert(g.columns.toSeq == w.columns.toSeq, clue)
          // All four results in one collect: (query, lid, rid, dist, group…),
          // the two-table entry's missing group columns padded with -1.
          val all = (want ++ got).zipWithIndex.map { case (df, q) =>
            df.select((lit(q) +: df.columns.toSeq.map(col)) ++ Seq.fill(5 - df.columns.length)(lit(-1)): _*)
          }.reduce(_ union _).collect()
          val byQuery = all.groupBy(_.getInt(0)).map { case (q, rs) =>
            q -> rs.map(r => (r.getLong(1), r.getLong(2), java.lang.Double.doubleToRawLongBits(r.getDouble(3)),
              r.getInt(4), r.getInt(5))).sorted.toSeq
          }.withDefaultValue(Seq.empty)
          for (e <- 0 until 2) {
            pairs += byQuery(e).size
            assert(byQuery(e + 2) == byQuery(e), s"$clue entry $e")
          }
          // By table pair: the whole merge hierarchy, whose levels run the
          // kernel on each table pair, against the windowed search per level
          // merged on the driver; rows bit for bit, keys in order.
          val mc = MergeConfig(k = k, m = m, ann = cfg)
          def bits(rs: Seq[(Long, Seq[Long], Seq[Double], Seq[Long])]) =
            rs.map(r => (r._1, r._2, r._3.map(java.lang.Double.doubleToRawLongBits), r._4))
          val wantMerged = bits(References.hierarchical(items.withColumn("members", array(col("id"))), nTables, mc))
          val gotMerged = bits(Merging.hierarchical((0 until nTables).map(t => items.filter(col("t") === t)
            .select(col("id") as "eid")), items.withColumnRenamed("id", "eid"), mc).collect()
            .map(r => (r.getLong(0), r.getSeq[Long](1), r.getSeq[Double](2), r.getSeq[Long](3))).sortBy(_._1).toSeq)
          merged += wantMerged.count(_._2.size > 1)
          assert(gotMerged == wantMerged, s"$clue hierarchical")
        }
      }
    }
    info(s"$pairs pairs, $merged merged items")
    assert(pairs > 500)
    assert(merged > 200)
  }

  test("blocking recall: keyed level-1 pairs recover the exact pairs on Geo and Music-20") {
    // The first merge level of the benchmark workloads (seed 1, m = 0.45,
    // k = 1, γ = 0.45, sample ratio 0.2): each level-1 table pair searched
    // with and without blocking keys by `mutualPairs`, the kernel a merge
    // level runs on each table pair, so the gap is the keys' alone. Measured
    // recall: Geo 1.000, Music-20 1.000; each floor is 0.05 below it.
    val floors = Map("Geo" -> 0.95, "Music-20" -> 0.95)
    for (ds <- Seq(EmDataGen.geo(spark, 0.1, 1L), EmDataGen.music(spark, 75L, 1L, "Music-20"))) {
      // MultiEm.run's selection, representation and level-1 items.
      val keyed = AnnConfig(exact = false)
      val union = ds.tables.reduce(_ unionByName _)
      val sel = AttributeSelection.select(union, "eid", ds.attrs, 0.2, 0.45, EmbedConfig(), 1L)
      val emb = MultiEm.representWithKeys(union, sel.selected, EmbedConfig(), keyed)
      val items = Merging.levelOneItems(ds.tables, emb)
      def table(t: Int) = items.filter(col("t") === t).select("id", "vec", "keys")
      def levelOne(ann: AnnConfig) = (0 until ds.tables.size / 2)
        .map(p => pairsOf(MutualTopK.mutualPairs(table(2 * p), table(2 * p + 1), 1, 0.45, ann))).reduce(_ ++ _)
      val exact = levelOne(AnnConfig(exact = true))
      val blocked = levelOne(keyed)
      val recall = (blocked & exact).size.toDouble / exact.size
      info(f"${ds.name}: recall $recall%.4f of ${exact.size} exact pairs (${blocked.size} keyed)")
      assert(exact.size >= 50, ds.name)
      assert(recall >= floors(ds.name), ds.name)
    }
  }
}
