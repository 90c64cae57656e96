package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import repro.embed.VecOps

/** Pruning-phase configuration (paper §III-D).
  *
  * @param eps    ε, the neighborhood radius (Euclidean distance between
  *               unit-normalised entity embeddings)
  * @param minPts MinPts — neighbors (incl. self, distance 0 < ε) needed for
  *               an entity to be a core entity; the paper uses 2
  */
case class PruneConfig(eps: Double = 0.9, minPts: Int = 2)

/** Density-based pruning (Definitions 3–5, Algorithm 4).
  *
  * Every candidate tuple from the merging phase is pruned independently:
  * entities are classified as core (≥ MinPts entities of the same tuple
  * strictly within ε, Eq. 11–12), reachable (non-core with a core entity at
  * distance ≤ ε, Eq. 13–14) or outlier (neither); outliers are removed and
  * the survivors form the refined tuple. Each tuple is gathered by one
  * `groupBy(tid)` and classified by a kernel over its pairwise distances,
  * so Spark partitioning delivers the paper's tuple-level parallelism.
  */
object DensityPruning {

  /** Algorithm 4 inside one tuple: the kind of each entity, in input order.
    *
    * Each pairwise `VecOps.euclideanDist` is computed once (it is symmetric
    * bit for bit); an entity's distance to itself is computed too, and
    * counts towards its own ε-neighbourhood when it is < ε.
    */
  def kindsOf(vecs: IndexedSeq[Seq[Double]], cfg: PruneConfig): IndexedSeq[String] = {
    val n = vecs.size
    val d = Array.ofDim[Double](n, n)
    for (i <- 0 until n; j <- i until n) {
      d(i)(j) = VecOps.euclideanDist(vecs(i), vecs(j))
      d(j)(i) = d(i)(j)
    }
    // Eq. 11–12: core iff |{e' : dist(e,e') < ε}| ≥ MinPts (self included).
    val core = d.map(row => row.count(_ < cfg.eps) >= cfg.minPts)
    // Eq. 13–14: reachable iff some *core* entity lies at distance ≤ ε.
    (0 until n).map { i =>
      if (core(i)) "core"
      else if ((0 until n).exists(j => core(j) && d(i)(j) <= cfg.eps)) "reachable"
      else "outlier"
    }
  }

  /** Per-entity classification — exposed for tests and analysis.
    *
    * @param items item tables from merging: (id, members: Array[Long], …)
    * @param emb   per-entity embeddings: (eid, vec)
    * @return (tid, eid, kind) with kind ∈ {core, reachable, outlier}, one
    *         row per entity of every multi-member tuple
    */
  def classify(items: DataFrame, emb: DataFrame, cfg: PruneConfig): DataFrame = {
    val kindsUdf = udf((ents: Seq[Row]) =>
      ents.map(_.getLong(0)).zip(kindsOf(ents.map(_.getSeq[Double](1)).toIndexedSeq, cfg)))
    items
      .filter(size(col("members")) >= 2)
      .select(col("id") as "tid", explode(col("members")) as "eid")
      .join(emb, Seq("eid"))
      .groupBy("tid")
      .agg(collect_list(struct(col("eid"), col("vec"))) as "ents")
      .select(col("tid"), explode(kindsUdf(col("ents"))) as "ek")
      .select(col("tid"), col("ek._1") as "eid", col("ek._2") as "kind")
  }

  /** Algorithm 4 applied to every tuple: drop outliers, keep tuples that
    * still have ≥ 2 members.
    *
    * @return refined tuples as (members: Array[Long]) rows
    */
  def prune(items: DataFrame, emb: DataFrame, cfg: PruneConfig): DataFrame =
    classify(items, emb, cfg)
      .filter(col("kind") =!= "outlier")
      .groupBy("tid")
      .agg(sort_array(collect_list("eid")) as "members")
      .filter(size(col("members")) >= 2)
      .select("members")
}
