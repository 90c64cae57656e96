package repro.ann

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.ArrayType
import repro.embed.VecOps

/** Configuration of the approximate neighbor search (HNSW substitute).
  *
  * Two candidate-generation modes:
  *  - `exact = true`: every left × right pair of a group is a candidate
  *    (test scale; recall oracle);
  *  - `exact = false`: signature blocking — entities carry `keys`
  *    (see `Embedder.blockingKeys`: pairwise combos of their top-weighted
  *    features + rare single features) and the candidates are the pairs
  *    that share at least one key. Near-duplicates share top features even
  *    under typos, so they collide on at least one key; all candidates are
  *    re-ranked by exact cosine distance.
  */
case class AnnConfig(
    exact: Boolean = true,
    topB: Int = 5,
    rareDf: Long = 30L,
)

/** Mutual top-K neighbor search, Eq. (1):
  *
  *   P_m = { (e, e') | e ∈ topK(e') ∧ e' ∈ topK(e) ∧ dist(e, e') ≤ m }
  *
  * Every entry tags its rows with a group and a side (left or right); one
  * `groupBy(group)` gathers each group's items and one kernel
  * (`mutualTopK`) searches the group in one task, so a search is two
  * stages. The three entries differ only in their groups:
  *  - `mutualPairs`: one group, between two embedded tables (the two-table
  *    matchers);
  *  - `mutualPairsByTablePair`: one group per table pair of one hierarchy
  *    level (Algorithm 3's merge step for all the level's table pairs at
  *    once);
  *  - `mutualPairsBySource`: one group per two sources of one tagged frame
  *    (the pairwise extension, Fig. 2a), each entity entering the group of
  *    every partner source — the per-table-pair result for all C(S,2) pairs
  *    at once.
  */
object MutualTopK {

  /** One item of a group: its id, vector and blocking keys (empty in exact
    * mode).
    */
  private[repro] case class Item(id: Long, vec: Array[Double], keys: Seq[Any])

  /** The mutual top-K pairs (lid, rid, dist) between the two sides of one
    * group, lid from `left` and rid from `right`.
    *
    * Candidates are every left × right pair (exact) or the pairs that share
    * a key (keyed, through an inverted index on the right side's keys, each
    * pair once). Each candidate's `VecOps.cosineDist` is kept when ≤ m; each
    * left id ranks its candidates by (dist, rid) and each right id by
    * (dist, lid), and a pair survives when ranked ≤ k both ways.
    */
  private[repro] def mutualTopK(
      left: IndexedSeq[Item],
      right: IndexedSeq[Item],
      k: Int,
      m: Double,
      exact: Boolean,
  ): Seq[(Long, Long, Double)] = {
    val li = ArrayBuffer.empty[Int]
    val ri = ArrayBuffer.empty[Int]
    val ds = ArrayBuffer.empty[Double]
    def score(i: Int, j: Int): Unit = {
      val d = VecOps.cosineDist(left(i).vec, right(j).vec)
      if (d <= m) { li += i; ri += j; ds += d }
    }
    if (exact) for (i <- left.indices; j <- right.indices) score(i, j)
    else {
      val index = mutable.HashMap.empty[Any, ArrayBuffer[Int]]
      for (j <- right.indices; key <- right(j).keys) index.getOrElseUpdate(key, ArrayBuffer.empty) += j
      // lastLeft(j) = the last left item scored against j, so a pair sharing
      // several keys is scored once.
      val lastLeft = Array.fill(right.size)(-1)
      for (i <- left.indices; key <- left(i).keys; j <- index.getOrElse(key, Nil) if lastLeft(j) != i) {
        lastLeft(j) = i
        score(i, j)
      }
    }
    // Whether each candidate is among its owner's k nearest, ties broken by
    // the smaller partner id.
    def ranked(owner: ArrayBuffer[Int], partnerId: Int => Long): Array[Boolean] = {
      val order = ds.indices.sortWith { (a, b) =>
        if (owner(a) != owner(b)) owner(a) < owner(b)
        else if (ds(a) != ds(b)) ds(a) < ds(b)
        else partnerId(a) < partnerId(b)
      }
      val kept = new Array[Boolean](ds.size)
      var rank = 0
      for (x <- order.indices) {
        rank = if (x > 0 && owner(order(x - 1)) == owner(order(x))) rank + 1 else 1
        kept(order(x)) = rank <= k
      }
      kept
    }
    val leftKept = ranked(li, c => right(ri(c)).id)
    val rightKept = ranked(ri, c => left(li(c)).id)
    ds.indices.filter(c => leftKept(c) && rightKept(c)).map(c => (left(li(c)).id, right(ri(c)).id, ds(c)))
  }

  /** Mutual top-K pairs with distance ≤ m.
    *
    * @param left  DataFrame with columns (id, vec[, keys])
    * @param right DataFrame with columns (id, vec[, keys]) — `keys` required
    *              when `cfg.exact` is false
    * @return (lid, rid, dist) — lid from `left`, rid from `right`
    */
  def mutualPairs(
      left: DataFrame,
      right: DataFrame,
      k: Int,
      m: Double,
      cfg: AnnConfig = AnnConfig(exact = true),
  ): DataFrame = {
    def side(df: DataFrame, isRight: Boolean) =
      df.select((lit(isRight) as "right") +: itemFields(cfg).tail.map(col): _*)
    search(side(left, false) unionByName side(right, true), Seq.empty, k, m, cfg)
  }

  /** Mutual top-K pairs with distance ≤ m within each table pair of one
    * frame: table 2i meets only table 2i + 1 (an odd last table meets none).
    * Equal to `mutualPairs` run on every pair and unioned.
    *
    * @param items (t, id, vec[, keys]) — all items tagged with their table
    *              index t; `keys` required when `cfg.exact` is false
    * @return (lid, rid, dist, lpair, rpair) with t(lid) = 2·lpair and
    *         t(rid) = 2·rpair + 1, lpair = rpair
    */
  def mutualPairsByTablePair(items: DataFrame, k: Int, m: Double, cfg: AnnConfig): DataFrame = {
    val tagged = items
      .withColumn("pair", shiftright(col("t"), 1))
      .withColumn("right", col("t") % 2 === 1)
    search(tagged, Seq("pair"), k, m, cfg)
      .select(col("lid"), col("rid"), col("dist"), col("pair") as "lpair", col("pair") as "rpair")
  }

  /** Mutual top-K pairs with distance ≤ m between every two sources of one
    * frame; each entity keeps its top k per partner source.
    *
    * @param items (id, source, vec[, keys]) — all entities tagged with their
    *              source; `keys` required when `cfg.exact` is false
    * @return (lid, rid, dist, lsource, rsource) with lsource < rsource, the
    *         sources of lid and rid
    */
  def mutualPairsBySource(items: DataFrame, k: Int, m: Double, cfg: AnnConfig): DataFrame = {
    val sourceType = items.schema("source").dataType
    val sources = items.select("source").distinct().collect().toSeq.map(r => lit(r.get(0)))
    val tagged = items
      .withColumn("partner", explode(array(sources: _*).cast(ArrayType(sourceType))))
      .filter(col("partner") =!= col("source"))
      .withColumn("lsource", least(col("source"), col("partner")))
      .withColumn("rsource", greatest(col("source"), col("partner")))
      .withColumn("right", col("source") === col("rsource"))
    search(tagged, Seq("lsource", "rsource"), k, m, cfg)
  }

  /** The columns of a group's item: its side, then the kernel's `Item`. */
  private def itemFields(cfg: AnnConfig): Seq[String] =
    Seq("right", "id", "vec") ++ (if (cfg.exact) Nil else Seq("keys"))

  /** The mutual top-K pairs within every group of `tagged` (group columns,
    * right, id, vec[, keys]): one `groupBy(group)` and the kernel per group.
    *
    * @return (lid, rid, dist, group columns…)
    */
  private def search(tagged: DataFrame, group: Seq[String], k: Int, m: Double, cfg: AnnConfig): DataFrame = {
    def item(r: Row): Item =
      Item(r.getLong(1), r.getSeq[Double](2).toArray,
        if (cfg.exact || r.isNullAt(3)) Nil else r.getSeq[Any](3))
    val kernel = udf { (items: Seq[Row]) =>
      val (right, left) = items.partition(_.getBoolean(0))
      mutualTopK(left.map(item).toIndexedSeq, right.map(item).toIndexedSeq, k, m, cfg.exact)
    }
    tagged
      .groupBy(group.map(col): _*)
      .agg(collect_list(struct(itemFields(cfg).map(col): _*)) as "items")
      .select(group.map(col) :+ (explode(kernel(col("items"))) as "p"): _*)
      .select(Seq(col("p._1") as "lid", col("p._2") as "rid", col("p._3") as "dist") ++ group.map(col): _*)
  }
}
