package repro.core

import java.util.concurrent.Executors
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration
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
  * @param parallel    merge the independent table pairs of each hierarchy
  *                    level concurrently (MultiEM (parallel), §III-E);
  *                    otherwise they merge one after another on the
  *                    calling thread
  * @param parallelism driver threads of the pool that parallel mode creates
  *                    once per `Merging.hierarchical` call
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
  * table pairs until one table remains.
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

  /** Algorithm 3: merge two item tables.
    *
    * Mutual top-K pairs (Eq. 1), at most k·min(|a|, |b|) of them, are
    * collected to the driver, where a union-find labels each matched item
    * with the minimum item id of its component (transitivity, line 8).
    * Matched items are merged per component (members unioned, centroid
    * recomputed, keys unioned and capped); unmatched items pass through
    * untouched into the merged table.
    */
  def twoTableMerge(a: DataFrame, b: DataFrame, cfg: MergeConfig): DataFrame = {
    val spark = a.sparkSession
    import spark.implicits._
    val pairs = MutualTopK.mutualPairs(
      a.select("id", "vec", "keys"), b.select("id", "vec", "keys"), cfg.k, cfg.m, cfg.ann)
      .select("lid", "rid").collect().map(r => (r.getLong(0), r.getLong(1)))
    val comp = ConnectedComponents.of(pairs).toSeq.toDF("id", "component")
    val all = a.unionByName(b)
    val matchedItems = all
      .join(comp, Seq("id"))
      .groupBy("component")
      .agg(
        sort_array(flatten(collect_list("members"))) as "members",
        VecOps.meanNormalizedCol(collect_list("vec")) as "vec",
        slice(array_distinct(flatten(collect_list("keys"))), 1, MaxKeys) as "keys",
      )
      // component label is the min item id = min member eid, preserving the
      // id invariant for subsequent levels.
      .select(col("component") as "id", col("members"), col("vec"), col("keys"))
    val unmatched = all.join(comp.select("id"), Seq("id"), "left_anti")
    unmatched.unionByName(matchedItems)
  }

  /** Algorithm 2: binary-tree merge schedule over all tables. Each level
    * merges its table pairs (an odd table passes to the next level) and
    * checkpoints the results. The pair merges of a level are independent: in
    * parallel mode they run concurrently on the shared SparkSession, from a
    * pool of `parallelism` driver threads created once per call; otherwise
    * they run one after another on the calling thread.
    */
  def hierarchical(tables: Seq[DataFrame], cfg: MergeConfig): DataFrame = {
    require(tables.nonEmpty, "no tables to merge")
    val pool = Option.when(cfg.parallel)(Executors.newFixedThreadPool(math.max(1, cfg.parallelism)))
    implicit val ec: ExecutionContext =
      pool.map(ExecutionContext.fromExecutorService(_)).getOrElse(ExecutionContext.parasitic)
    def step(g: Vector[DataFrame]): DataFrame =
      if (g.size == 2) twoTableMerge(g(0), g(1), cfg).localCheckpoint() else g(0)
    try {
      var cur = tables.toVector
      while (cur.size > 1)
        cur = Await.result(Future.sequence(cur.grouped(2).map(g => Future(step(g)))), Duration.Inf).toVector
      cur.head
    } finally pool.foreach(_.shutdown())
  }
}
