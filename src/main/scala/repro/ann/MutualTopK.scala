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
  * serves three entries:
  *  - `mutualPairs`: between two embedded tables (the two-table matchers);
  *  - `mutualPairsByTablePair`: between the two tables of every pair of one
  *    hierarchy level in a single dataflow (Algorithm 3's merge step for all
  *    the level's table pairs at once);
  *  - `mutualPairsBySource`: between every pair of sources of one tagged
  *    frame in a single dataflow (the pairwise extension, Fig. 2a), with
  *    each entity ranked per partner source — the per-table-pair result for
  *    all C(S,2) pairs at once.
  */
object MutualTopK {

  /** Which candidates a search compares, given each side's tag: all of
    * them (untagged), those of one table pair, or those of every two
    * sources, ranked per partner source.
    */
  private sealed trait Scope
  private case object TwoTables extends Scope
  private case object ByTablePair extends Scope
  private case object BySource extends Scope

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
  ): DataFrame = search(left, right, TwoTables, k, m, cfg)

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
    val tagged = items.withColumn("pair", shiftright(col("t"), 1))
    search(tagged.filter(col("t") % 2 === 0), tagged.filter(col("t") % 2 === 1), ByTablePair, k, m, cfg)
  }

  /** Mutual top-K pairs with distance ≤ m between every two sources of one
    * frame; each entity keeps its top k per partner source.
    *
    * @param items (id, source, vec[, keys]) — all entities tagged with their
    *              source; `keys` required when `cfg.exact` is false
    * @return (lid, rid, dist, lsource, rsource) with lsource < rsource, the
    *         sources of lid and rid
    */
  def mutualPairsBySource(items: DataFrame, k: Int, m: Double, cfg: AnnConfig): DataFrame =
    search(items, items, BySource, k, m, cfg)

  private def search(
      left: DataFrame,
      right: DataFrame,
      scope: Scope,
      k: Int,
      m: Double,
      cfg: AnnConfig,
  ): DataFrame = {
    // The tag column of each side, when the scope has one.
    val tag = scope match {
      case TwoTables   => None
      case ByTablePair => Some("pair")
      case BySource    => Some("source")
    }
    def tagOf(p: String): Seq[Column] = tag.map(t => col(p + t)).toSeq
    def side(df: DataFrame, p: String): DataFrame =
      df.select(Seq(col("id") as s"${p}id", col("vec") as s"${p}vec") ++
        (if (cfg.exact) Seq.empty else Seq(col("keys") as s"${p}keys")) ++
        tag.map(t => col(t) as p + t): _*)
    val l = side(left, "l")
    val r = side(right, "r")
    // The candidates a scope admits: the two tables of one pair (an
    // equi-join on the pair index), or every two sources once.
    val admitted: Option[Column] = scope match {
      case TwoTables   => None
      case ByTablePair => Some(col("lpair") === col("rpair"))
      case BySource    => Some(col("lsource") < col("rsource"))
    }
    // Exact mode scores the cross product of the vectors directly; keyed
    // mode equi-joins exploded blocking keys (by table pair, the optimizer
    // folds the pair equality into the join keys) and joins the vectors onto
    // the deduplicated candidate ids.
    val withVecs =
      if (cfg.exact) admitted.fold(l.crossJoin(r))(l.join(r, _))
      else {
        val lk = l.select(col("lid") +: tagOf("l") :+ (explode(col("lkeys")) as "key"): _*)
        val rk = r.select(col("rid") +: tagOf("r") :+ (explode(col("rkeys")) as "key"): _*)
        val joined = lk.join(rk, Seq("key"))
        admitted.fold(joined)(joined.filter).select("lid", "rid").distinct()
          .join(l.drop("lkeys"), Seq("lid"))
          .join(r.drop("rkeys"), Seq("rid"))
      }
    val scored = withVecs
      .withColumn("dist", VecOps.cosineDistCol(col("lvec"), col("rvec")))
      .filter(col("dist") <= m)
      .select(Seq(col("lid"), col("rid"), col("dist")) ++ tagOf("l") ++ tagOf("r"): _*)
    // Rank candidates in both directions (per partner source when by
    // source; an id belongs to one table pair, so by table pair ranks per id
    // alone); mutual top-K keeps pairs ranked ≤ k on each side (ties broken
    // by the partner id for determinism).
    def per(p: String): Seq[Column] = if (scope == BySource) tagOf(p) else Seq.empty
    val wl = Window.partitionBy(col("lid") +: per("r"): _*).orderBy(col("dist"), col("rid"))
    val wr = Window.partitionBy(col("rid") +: per("l"): _*).orderBy(col("dist"), col("lid"))
    scored
      .withColumn("rl", row_number().over(wl))
      .withColumn("rr", row_number().over(wr))
      .filter(col("rl") <= k && col("rr") <= k)
      .drop("rl", "rr")
  }
}
