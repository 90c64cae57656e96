package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import repro.ann.{AnnConfig, MutualTopK}
import repro.embed.VecOps
import repro.graph.ConnectedComponents

/** Merging-phase configuration (paper §III-C).
  *
  * @param k           mutual top-K width (paper uses k = 1)
  * @param m           distance threshold in Eq. (1)
  * @param ann         ANN backend configuration (signature blocking or exact)
  * @param parallel    no effect: every hierarchy level merges all its table
  *                    pairs in one dataflow, which is MultiEM (parallel)'s
  *                    schedule (§III-E). Kept, with `parallelism`, only
  *                    because the benchmark (perfbench `Main` and
  *                    `LayeredRun`) sets and reads them
  * @param parallelism no effect; see `parallel`
  */
case class MergeConfig(
    k: Int = 1,
    m: Double = 0.4,
    ann: AnnConfig = AnnConfig(exact = true),
    parallel: Boolean = false,
    parallelism: Int = 4,
)

/** Table-wise hierarchical merging (Algorithms 2 and 3).
  *
  * A *table of items* is a DataFrame (id: Long, members: Array[Long],
  * vec: Array[Double], keys: Array[Long]) where `id` is always the minimum
  * member eid, `vec` the L2-renormalised centroid of the members' entity
  * embeddings, and `keys` the union of the members' blocking keys (capped).
  * The initial tables hold one item per entity; every hierarchy level merges
  * table pairs until one table remains. A level holds all its tables in one
  * frame, each item tagged with its table index `t`.
  */
object Merging {

  /** Cap on a merged item's blocking-key count. */
  val MaxKeys = 16

  /** Lift per-entity embeddings (eid, vec[, keys]) into single-member items;
    * a missing `keys` column becomes an empty array (fine for exact mode).
    */
  def initItems(emb: DataFrame): DataFrame = {
    val withKeys =
      if (emb.columns.contains("keys")) emb
      else emb.withColumn("keys", array().cast("array<long>"))
    withKeys.select(col("eid") as "id", array(col("eid")) as "members", col("vec"), col("keys"))
  }

  /** Algorithm 3: merge two item tables — one level of two tables. */
  def twoTableMerge(a: DataFrame, b: DataFrame, cfg: MergeConfig): DataFrame =
    level(tagged(Seq(a, b)), cfg).drop("t")

  /** Algorithm 2: the binary-tree merge schedule over the S source tables.
    *
    * Every entity becomes a single-member item tagged with the index t of
    * its table, all in one join. Each level merges all its table pairs in
    * one `groupBy`, one kernel task per pair, and checkpoints the result;
    * the tables of the next level are t / 2, so an odd last table passes to
    * it unmerged.
    *
    * @param tables per-source frames with an `eid` column
    * @param emb    per-entity embeddings (eid, vec[, keys]) of every table
    * @return the single merged table of items
    */
  def hierarchical(tables: Seq[DataFrame], emb: DataFrame, cfg: MergeConfig): DataFrame = {
    require(tables.nonEmpty, "no tables to merge")
    var cur = levelOneItems(tables, emb)
    var n = tables.size
    while (n > 1) {
      cur = level(cur, cfg).localCheckpoint()
      n = (n + 1) / 2
    }
    cur.drop("t")
  }

  /** The items [[hierarchical]] starts from: every table's items in one
    * join, each eid tagged with its table index t.
    */
  private[repro] def levelOneItems(tables: Seq[DataFrame], emb: DataFrame): DataFrame = {
    val tags = tables.zipWithIndex.map { case (t, i) => t.select(col("eid") as "id", lit(i) as "t") }
    initItems(emb).join(tags.reduce(_ unionByName _), Seq("id")).localCheckpoint()
  }

  /** The items of item tables in one frame, tagged with their table index. */
  private def tagged(tables: Seq[DataFrame]): DataFrame =
    tables.zipWithIndex
      .map { case (df, t) => df.select(lit(t) as "t", col("id"), col("members"), col("vec"), col("keys")) }
      .reduce(_ unionByName _)

  /** Algorithm 3 for every table pair (2i, 2i + 1) of one level at once:
    * one `groupBy(t / 2)` gathers each table pair's items and one kernel
    * ([[mergePair]]) merges the pair in one task. Eids are unique, so no
    * component spans two table pairs. Every item moves to table t / 2.
    */
  private def level(items: DataFrame, cfg: MergeConfig): DataFrame = {
    val kernel = udf((rows: Seq[Row]) => mergePair(rows, cfg))
    items
      .groupBy(shiftright(col("t"), 1) as "t")
      .agg(collect_list(struct(col("t") % 2 === 1 as "right", col("id"), col("vec"), col("keys"), col("members")))
        as "items")
      .select(col("t"), explode(kernel(col("items"))) as "it")
      .select(col("it._1") as "id", col("it._2") as "members", col("it._3") as "vec", col("it._4") as "keys", col("t"))
  }

  /** Algorithm 3 on one table pair's items (right, id, vec, keys, members),
    * `right` marking table 2i + 1: the mutual top-K pairs (Eq. 1), at most
    * k·min(|a|, |b|), then a union-find over them (transitivity, line 8).
    * Each component becomes one item from its items in id order: the
    * minimum id, the members sorted, the renormalised centroid and the keys
    * distinct and capped, so the result does not depend on the order of
    * `rows`. Unmatched items pass through untouched (line 9).
    *
    * @return (id, members, vec, keys) per output item
    */
  private def mergePair(rows: Seq[Row], cfg: MergeConfig): Seq[(Long, Seq[Long], Array[Double], Seq[Long])] = {
    val items = rows.map(r => (r.getBoolean(0), MutualTopK.item(r), r.getSeq[Long](4)))
    val (right, left) = items.partition(_._1)
    val pairs = MutualTopK.mutualTopK(left.map(_._2).toIndexedSeq, right.map(_._2).toIndexedSeq, cfg.k, cfg.m,
      cfg.ann.exact)
    val component = ConnectedComponents.of(pairs.map(p => (p._1, p._2)))
    items.groupBy { case (_, it, _) => component.getOrElse(it.id, it.id) }.values.toSeq.map { group =>
      group.sortBy(_._2.id) match {
        case Seq((_, it, members)) => (it.id, members, it.vec, it.keys)
        case its =>
          (its.head._2.id, its.flatMap(_._3).sorted, VecOps.meanNormalized(its.map(_._2.vec.toSeq)),
            its.flatMap(_._2.keys).distinct.take(MaxKeys))
      }
    }
  }
}
