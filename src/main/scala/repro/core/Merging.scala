package repro.core

import org.apache.spark.sql.DataFrame
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
    * one dataflow and checkpoints the result; the tables of the next level
    * are t / 2, so an odd last table passes to it unmerged.
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

  /** Algorithm 3 for every table pair (2i, 2i + 1) of one level at once.
    *
    * Mutual top-K pairs (Eq. 1) within each table pair, at most
    * k·min(|a|, |b|) per pair, are collected to the driver, where a
    * union-find labels each matched item with the minimum item id of its
    * component (transitivity, line 8); eids are unique, so no component
    * spans two table pairs. Matched items are merged per component (members
    * unioned, centroid recomputed, keys unioned and capped); unmatched items
    * pass through untouched. Every item moves to table t / 2.
    */
  private def level(items: DataFrame, cfg: MergeConfig): DataFrame = {
    val spark = items.sparkSession
    import spark.implicits._
    val pairs = MutualTopK.mutualPairsByTablePair(items.select("t", "id", "vec", "keys"), cfg.k, cfg.m, cfg.ann)
      .select("lid", "rid").collect().map(r => (r.getLong(0), r.getLong(1)))
    val comp = ConnectedComponents.of(pairs).toSeq.toDF("id", "component")
    val all = items.withColumn("t", shiftright(col("t"), 1))
    val matchedItems = all
      .join(comp, Seq("id"))
      .groupBy("component")
      .agg(
        min("t") as "t", // one table pair per component, so one t / 2
        sort_array(flatten(collect_list("members"))) as "members",
        VecOps.meanNormalizedCol(collect_list("vec")) as "vec",
        slice(array_distinct(flatten(collect_list("keys"))), 1, MaxKeys) as "keys",
      )
      // component label is the min item id = min member eid, preserving the
      // id invariant for subsequent levels.
      .select(col("t"), col("component") as "id", col("members"), col("vec"), col("keys"))
    val unmatched = all.join(comp.select("id"), Seq("id"), "left_anti")
    unmatched.unionByName(matchedItems)
  }
}
