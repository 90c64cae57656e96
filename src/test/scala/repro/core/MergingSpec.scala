package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestUtil}
import repro.TestUtil.{planar, vecDf}
import repro.ann.{AnnConfig, MutualTopK}
import repro.embed.VecOps

class MergingSpec extends SparkSpec {

  private def items(rows: Seq[(Long, Array[Double])]): DataFrame =
    Merging.initItems(vecDf(spark, rows).withColumnRenamed("id", "eid"))

  private def memberSets(df: DataFrame): Set[Set[Long]] = TestUtil.tupleSet(df)

  private val cfg = MergeConfig(k = 1, m = 0.3, ann = AnnConfig(exact = true))

  test("initItems wraps each entity as a singleton item with id = eid") {
    val it = items(Seq(7L -> planar(0.0))).collect()(0)
    assert(it.getLong(0) == 7L)
    assert(it.getSeq[Long](1) == Seq(7L))
  }

  test("twoTableMerge merges mutual nearest pairs into one item") {
    val a = items(Seq(1L -> planar(0.00), 2L -> planar(1.5)))
    val b = items(Seq(3L -> planar(0.02), 4L -> planar(2.8)))
    val out = Merging.twoTableMerge(a, b, cfg)
    assert(memberSets(out.filter(size(col("members")) >= 2)) == Set(Set(1L, 3L)))
    assert(out.count() == 3) // merged item + two pass-through singletons
  }

  test("merged item id is the min member eid") {
    val a = items(Seq(9L -> planar(0.0)))
    val b = items(Seq(4L -> planar(0.01)))
    val out = Merging.twoTableMerge(a, b, cfg).collect()
    assert(out.length == 1)
    assert(out(0).getLong(0) == 4L)
    assert(out(0).getSeq[Long](1) == Seq(4L, 9L))
  }

  test("merged item vector is the renormalised centroid") {
    val a = items(Seq(1L -> planar(0.0)))
    val b = items(Seq(2L -> planar(0.2)))
    val out = Merging.twoTableMerge(a, b, cfg).collect()(0)
    val vec = out.getSeq[Double](2)
    val expect = repro.embed.VecOps.meanNormalized(Seq(planar(0.0).toSeq, planar(0.2).toSeq))
    vec.zip(expect).foreach { case (x, y) => assert(math.abs(x - y) < 1e-9) }
  }

  test("twoTableMerge with no matches unions the tables untouched") {
    val a = items(Seq(1L -> planar(0.0)))
    val b = items(Seq(2L -> planar(1.5)))
    val out = Merging.twoTableMerge(a, b, cfg)
    assert(memberSets(out.filter(size(col("members")) >= 1)) == Set(Set(1L), Set(2L)))
  }

  test("unmatched entities survive to the merged table (Algorithm 3 line 9)") {
    val a = items(Seq(1L -> planar(0.0), 5L -> planar(0.9)))
    val b = items(Seq(2L -> planar(0.02)))
    val out = Merging.twoTableMerge(a, b, cfg)
    assert(memberSets(out) == Set(Set(1L, 2L), Set(5L)))
  }

  test("hierarchical over 4 tables finds cross-hierarchy matches") {
    // e1≈e2 (tables 1,2) and e3≈e4 (tables 3,4); the two merged items are
    // also near each other → second hierarchy merges all four.
    val t1 = items(Seq(1L -> planar(0.00)))
    val t2 = items(Seq(2L -> planar(0.04)))
    val t3 = items(Seq(3L -> planar(0.08)))
    val t4 = items(Seq(4L -> planar(0.12)))
    val out = Merging.hierarchical(Seq(t1, t2, t3, t4), cfg)
    assert(memberSets(out) == Set(Set(1L, 2L, 3L, 4L)))
  }

  test("hierarchical with an odd table count carries the odd table forward") {
    val t1 = items(Seq(1L -> planar(0.0)))
    val t2 = items(Seq(2L -> planar(1.5)))
    val t3 = items(Seq(3L -> planar(0.03)))
    val out = Merging.hierarchical(Seq(t1, t2, t3), cfg)
    assert(memberSets(out) == Set(Set(1L, 3L), Set(2L)))
  }

  test("hierarchical of a single table is the identity") {
    val t1 = items(Seq(1L -> planar(0.0), 2L -> planar(1.0)))
    assert(memberSets(Merging.hierarchical(Seq(t1), cfg)) == Set(Set(1L), Set(2L)))
  }

  test("transitivity merges within one hierarchy via connected components") {
    // a1 ↔ b1 and a2 ↔ b1? No — mutual top-1 allows each item one partner
    // per direction, but two left items can both be matched to one right
    // item only if both rank it first AND it ranks both within top-1 — so
    // use k=2 to allow a 3-way component.
    val a = items(Seq(1L -> planar(0.00), 2L -> planar(0.06)))
    val b = items(Seq(3L -> planar(0.03)))
    val out = Merging.twoTableMerge(a, b, cfg.copy(k = 2))
    assert(memberSets(out) == Set(Set(1L, 2L, 3L)))
  }

  /** Sets Spark SQL options for the duration of `f`, then restores them. */
  private def withConf[T](kv: (String, String)*)(f: => T): T = {
    val saved = kv.map { case (k, _) => k -> spark.conf.getOption(k) }
    kv.foreach { case (k, v) => spark.conf.set(k, v) }
    try f
    finally saved.foreach { case (k, v) => v.fold(spark.conf.unset(k))(spark.conf.set(k, _)) }
  }

  test("hierarchical equals per-pair twoTableMerge bit for bit") {
    // Five tables: the fifth is carried forward at the first level, and a
    // five-way item unions 1 + 5 × 5 keys, so the 16-key cap decides which
    // survive. Key i is shared by item i of every table, and each odd table
    // sits nearer to an even table of another pair than to its partner, so
    // a level search that crosses table pairs changes the result. Rows must
    // agree bit for bit, keys in order, at any shuffle-partition count.
    import spark.implicits._
    val offset = Seq(0.0, 0.04, 0.05, 0.01, 0.02)
    val tabs = (0 until 5).map { t =>
      val rows = (0 until 5).map { i =>
        val id = (t * 10 + i).toLong
        (id, planar(i * 0.5 + offset(t)).toSeq, i.toLong +: (1 to 5).map(j => 1000L * (t + 1) + 10 * i + j))
      }
      Merging.initItems(rows.toDF("eid", "vec", "keys")).localCheckpoint()
    }
    def rowsOf(df: DataFrame) = df.collect().map(r =>
      (r.getLong(0), r.getSeq[Long](1), r.getSeq[Double](2).map(java.lang.Double.doubleToRawLongBits),
        r.getSeq[Long](3))).sortBy(_._1).toSeq
    def perPair(c: MergeConfig): DataFrame = {
      var cur = tabs.toVector
      while (cur.size > 1)
        cur = cur.grouped(2).map(g => if (g.size == 2) Merging.twoTableMerge(g(0), g(1), c).localCheckpoint() else g(0))
          .toVector
      cur.head
    }
    for (exact <- Seq(true, false); partitions <- Seq(1, 2, 7)) {
      val c = cfg.copy(ann = AnnConfig(exact = exact))
      val clue = s"exact=$exact partitions=$partitions"
      withConf("spark.sql.shuffle.partitions" -> partitions.toString, "spark.sql.adaptive.enabled" -> "false") {
        val want = rowsOf(perPair(c))
        assert(want.exists(_._2.size == 5), clue)
        assert(want.exists(_._4.size == Merging.MaxKeys), clue)
        assert(rowsOf(Merging.hierarchical(tabs, c)) == want, clue)
      }
    }
  }

  test("members stay sorted after multi-level merges") {
    val t1 = items(Seq(9L -> planar(0.00)))
    val t2 = items(Seq(4L -> planar(0.02)))
    val t3 = items(Seq(7L -> planar(0.04)))
    val t4 = items(Seq(1L -> planar(0.06)))
    val out = Merging.hierarchical(Seq(t1, t2, t3, t4), cfg).collect()
    val members = out.map(_.getSeq[Long](1)).find(_.size == 4).get
    assert(members == members.sorted)
    assert(out.find(_.getSeq[Long](1).size == 4).get.getLong(0) == 1L)
  }

  /** Algorithm 3 built on the driver from separately materialised mutual
    * pairs: union-find over the pairs, members unioned, centroid of the
    * members' item vectors, unmatched items passed through.
    */
  private def referenceMerge(a: DataFrame, b: DataFrame, cfg: MergeConfig): Map[Long, (Seq[Long], Seq[Double])] = {
    val pairs = MutualTopK.mutualPairs(a.select("id", "vec", "keys"), b.select("id", "vec", "keys"), cfg.k, cfg.m, cfg.ann)
      .localCheckpoint().collect().map(r => (r.getLong(0), r.getLong(1)))
    val items = a.unionByName(b).collect().map(r => r.getLong(0) -> (r.getSeq[Long](1), r.getSeq[Double](2))).toMap
    val parent = scala.collection.mutable.Map(items.keys.map(i => i -> i).toSeq: _*)
    def find(x: Long): Long = if (parent(x) == x) x else { val r = find(parent(x)); parent(x) = r; r }
    pairs.foreach { case (l, r) =>
      val (x, y) = (find(l), find(r)); if (x != y) parent(math.max(x, y)) = math.min(x, y)
    }
    items.keys.groupBy(find).map { case (root, ids) =>
      val its = ids.toSeq.sorted.map(items)
      root -> (its.flatMap(_._1).sorted, VecOps.meanNormalized(its.map(_._2)).toSeq)
    }
  }

  test("twoTableMerge equals a merge over separately materialised mutual pairs (ties, duplicates)") {
    // Duplicate vectors on both sides and items equidistant from two
    // partners: tie-breaking by partner id must pick the same pairs.
    val a = items(Seq(1L -> planar(0.0), 2L -> planar(0.0), 3L -> planar(0.2), 4L -> planar(0.5), 5L -> planar(2.0)))
    val b = items(Seq(11L -> planar(0.1), 12L -> planar(0.1), 13L -> planar(0.0), 14L -> planar(0.35),
      15L -> planar(0.65)))
    for (c <- Seq(cfg, cfg.copy(k = 2), cfg.copy(k = 3, m = 0.05))) {
      val got = Merging.twoTableMerge(a, b, c).collect()
        .map(r => r.getLong(0) -> (r.getSeq[Long](1), r.getSeq[Double](2))).toMap
      val ref = referenceMerge(a, b, c)
      assert(got.keySet == ref.keySet, s"k=${c.k}")
      got.foreach { case (id, (members, vec)) =>
        assert(members == ref(id)._1, s"k=${c.k} item $id")
        vec.zip(ref(id)._2).foreach { case (x, y) => assert(math.abs(x - y) <= 1e-12, s"k=${c.k} item $id") }
      }
    }
  }
}
