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
  * @param parallel    merge independent table pairs of a hierarchy level
  *                    concurrently (MultiEM (parallel), §III-E)
  * @param parallelism max concurrent pair merges when parallel
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
    * Mutual top-K pairs (Eq. 1) become edges; connected components merge
    * matched items by transitivity (members unioned, centroid recomputed);
    * unmatched items pass through untouched into the merged table.
    */
  def twoTableMerge(a: DataFrame, b: DataFrame, cfg: MergeConfig): DataFrame = {
    // The mutual-pair search is the expensive part: run it once and derive
    // edges, component labels and the matched ids from its small result.
    val pairs = MutualTopK.mutualPairs(
      a.select("id", "vec", "keys"), b.select("id", "vec", "keys"), cfg.k, cfg.m, cfg.ann).localCheckpoint()
    val all = a.unionByName(b)
    val edges = pairs.select(col("lid") as "src", col("rid") as "dst")
    val matchedIds = edges.select(col("src") as "id")
      .unionByName(edges.select(col("dst") as "id"))
      .distinct()
    // k = 1 fast path: mutual top-1 pairs form a one-to-one matching (each
    // item is ranked first by at most one partner per direction), so every
    // component is a single edge — label it min(src, dst) directly instead
    // of running the iterative CC loop.
    val comp =
      if (cfg.k == 1)
        edges.select(col("src") as "id", least(col("src"), col("dst")) as "component")
          .unionByName(edges.select(col("dst") as "id", least(col("src"), col("dst")) as "component"))
          .distinct()
      else ConnectedComponents.run(matchedIds, edges)
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
    val unmatched = all.join(matchedIds, Seq("id"), "left_anti")
    unmatched.unionByName(matchedItems)
  }

  /** Algorithm 2: binary-tree merge schedule over all tables; each level's
    * pair merges are independent and — in parallel mode — run concurrently
    * on the shared SparkSession (FAIR-ish via separate driver threads).
    */
  def hierarchical(tables: Seq[DataFrame], cfg: MergeConfig): DataFrame = {
    require(tables.nonEmpty, "no tables to merge")
    var cur = tables.toVector
    while (cur.size > 1) {
      val pairs: Seq[Either[(DataFrame, DataFrame), DataFrame]] =
        cur.grouped(2).map {
          case Seq(x, y) => Left((x, y))
          case Seq(x)    => Right(x)
        }.toSeq
      cur =
        if (!cfg.parallel) {
          pairs.map {
            case Left((x, y)) => twoTableMerge(x, y, cfg).localCheckpoint()
            case Right(x)     => x
          }.toVector
        } else {
          val pool = Executors.newFixedThreadPool(math.max(1, cfg.parallelism))
          implicit val ec: ExecutionContext = ExecutionContext.fromExecutorService(pool)
          try {
            val futs = pairs.map {
              case Left((x, y)) => Future { twoTableMerge(x, y, cfg).localCheckpoint() }
              case Right(x)     => Future.successful(x)
            }
            Await.result(Future.sequence(futs), Duration.Inf).toVector
          } finally pool.shutdown()
        }
    }
    cur.head
  }
}
