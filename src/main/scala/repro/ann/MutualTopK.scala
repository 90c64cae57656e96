package repro.ann

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.embed.VecOps

/** Configuration of the approximate neighbor search (HNSW substitute).
  *
  * Two candidate-generation modes:
  *  - `exact = true`: full cross join (test scale; recall oracle);
  *  - `exact = false`: signature blocking — entities carry `keys`
  *    (see `Embedder.blockingKeys`: pairwise combos of their top-weighted
  *    features + rare single features) and candidates are an equi-join on
  *    exploded keys. Near-duplicates share top features even under typos,
  *    so they collide on at least one key; all candidates are re-ranked by
  *    exact cosine distance.
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
  * Candidates (cross join or key-block join) are scored with exact cosine
  * distance and filtered by two window ranks — one per direction — which
  * realises the mutual-top-K semantics as pure DataFrame ops. One search
  * serves two entries:
  *  - `mutualPairs`: between two embedded tables (Algorithm 3's merge step,
  *    the two-table matchers);
  *  - `mutualPairsBySource`: between every pair of sources of one tagged
  *    frame in a single dataflow (the pairwise extension, Fig. 2a), with
  *    each entity ranked per partner source — the per-table-pair result for
  *    all C(S,2) pairs at once.
  */
object MutualTopK {

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
  ): DataFrame = search(left, right, bySource = false, k, m, cfg)

  /** Mutual top-K pairs with distance ≤ m between every two sources of one
    * frame; each entity keeps its top k per partner source.
    *
    * @param items (id, source, vec[, keys]) — all entities tagged with their
    *              source; `keys` required when `cfg.exact` is false
    * @return (lid, rid, dist) with source(lid) < source(rid)
    */
  def mutualPairsBySource(items: DataFrame, k: Int, m: Double, cfg: AnnConfig): DataFrame =
    search(items, items, bySource = true, k, m, cfg)

  private def search(
      left: DataFrame,
      right: DataFrame,
      bySource: Boolean,
      k: Int,
      m: Double,
      cfg: AnnConfig,
  ): DataFrame = {
    // Source columns exist only in the by-source search.
    def src(c: String): Seq[Column] = if (bySource) Seq(col(c)) else Seq.empty
    def side(df: DataFrame, p: String): DataFrame =
      df.select(Seq(col("id") as s"${p}id", col("vec") as s"${p}vec") ++
        (if (cfg.exact) Seq.empty else Seq(col("keys") as s"${p}keys")) ++
        (if (bySource) Seq(col("source") as s"${p}src") else Seq.empty): _*)
    val l = side(left, "l")
    val r = side(right, "r")
    val ordered = col("lsrc") < col("rsrc")
    // Exact mode scores the cross product of the vectors directly; keyed
    // mode equi-joins exploded blocking keys and joins the vectors onto the
    // deduplicated candidate ids.
    val withVecs =
      if (cfg.exact) { if (bySource) l.join(r, ordered) else l.crossJoin(r) }
      else {
        val lk = l.select(col("lid") +: src("lsrc") :+ (explode(col("lkeys")) as "key"): _*)
        val rk = r.select(col("rid") +: src("rsrc") :+ (explode(col("rkeys")) as "key"): _*)
        val joined = lk.join(rk, Seq("key"))
        (if (bySource) joined.filter(ordered) else joined).select("lid", "rid").distinct()
          .join(l.drop("lkeys"), Seq("lid"))
          .join(r.drop("rkeys"), Seq("rid"))
      }
    val scored = withVecs
      .withColumn("dist", VecOps.cosineDistCol(col("lvec"), col("rvec")))
      .filter(col("dist") <= m)
      .select(Seq(col("lid"), col("rid"), col("dist")) ++ src("lsrc") ++ src("rsrc"): _*)
    // Rank candidates in both directions (per partner source when by
    // source); mutual top-K keeps pairs ranked ≤ k on each side (ties broken
    // by the partner id for determinism).
    val wl = Window.partitionBy(col("lid") +: src("rsrc"): _*).orderBy(col("dist"), col("rid"))
    val wr = Window.partitionBy(col("rid") +: src("lsrc"): _*).orderBy(col("dist"), col("lid"))
    scored
      .withColumn("rl", row_number().over(wl))
      .withColumn("rr", row_number().over(wr))
      .filter(col("rl") <= k && col("rr") <= k)
      .select("lid", "rid", "dist")
  }
}
