package repro.ann

import org.apache.spark.sql.DataFrame
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

/** Mutual top-K neighbor search between two embedded tables, Eq. (1):
  *
  *   P_m = { (e, e') | e ∈ topK(e') ∧ e' ∈ topK(e) ∧ dist(e, e') ≤ m }
  *
  * Candidates (cross join or key-block join) are scored with exact cosine
  * distance and filtered by two window ranks — one per direction — which
  * realises the mutual-top-K semantics as pure DataFrame ops.
  */
object MutualTopK {

  /** Candidate (lid, rid) pairs via blocking-key equi-join, deduplicated. */
  private def keyedCandidates(left: DataFrame, right: DataFrame): DataFrame = {
    val lk = left.select(col("lid"), explode(col("lkeys")) as "key")
    val rk = right.select(col("rid"), explode(col("rkeys")) as "key")
    lk.join(rk, Seq("key")).select("lid", "rid").distinct()
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
    val l = left.select((col("id") as "lid") +: (col("vec") as "lvec") +:
      (if (cfg.exact) Seq.empty else Seq(col("keys") as "lkeys")): _*)
    val r = right.select((col("id") as "rid") +: (col("vec") as "rvec") +:
      (if (cfg.exact) Seq.empty else Seq(col("keys") as "rkeys")): _*)
    // Exact mode scores the cross product of the vectors directly; keyed
    // mode joins the vectors onto its deduplicated candidate ids.
    val withVecs =
      if (cfg.exact) l.crossJoin(r)
      else keyedCandidates(l, r)
        .join(l.select("lid", "lvec"), Seq("lid"))
        .join(r.select("rid", "rvec"), Seq("rid"))
    val scored = withVecs
      .withColumn("dist", VecOps.cosineDistCol(col("lvec"), col("rvec")))
      .filter(col("dist") <= m)
      .select("lid", "rid", "dist")
    // Rank candidates in both directions; mutual top-K keeps pairs ranked
    // ≤ k on each side (ties broken by the partner id for determinism).
    val wl = Window.partitionBy("lid").orderBy(col("dist"), col("rid"))
    val wr = Window.partitionBy("rid").orderBy(col("dist"), col("lid"))
    scored
      .withColumn("rl", row_number().over(wl))
      .withColumn("rr", row_number().over(wr))
      .filter(col("rl") <= k && col("rr") <= k)
      .select("lid", "rid", "dist")
  }
}
