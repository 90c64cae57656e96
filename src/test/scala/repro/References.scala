package repro

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.ann.AnnConfig
import repro.baselines.PairMatcher
import repro.embed.VecOps

/** Straightforward formulations that tests compare the program's batched
  * dataflows against.
  */
object References {

  /** Pairwise matching (Fig. 2a) as the paper runs it: the matcher on every
    * one of the C(S,2) table pairs, outputs unioned — the reference for
    * `Extensions.bySource`.
    */
  def pairwise(tables: Seq[DataFrame], matcher: PairMatcher): DataFrame = {
    val outs = for {
      i <- tables.indices
      j <- tables.indices
      if i < j
    } yield matcher.matchPairs(tables(i), tables(j))
    outs.reduce(_ unionByName _).distinct()
  }

  /** Column-level Euclidean distance between two unit-vector columns. */
  def euclideanDistCol(a: Column, b: Column): Column = euclideanDistUdf(a, b)

  private val euclideanDistUdf =
    udf((a: Seq[Double], b: Seq[Double]) => VecOps.euclideanDist(a, b))

  // ------------------------------------------------ windowed mutual top-K --
  //
  // Eq. (1) as pure DataFrame operations: candidates from a cross join (exact)
  // or an equi-join on exploded blocking keys (keyed), scored with exact
  // cosine distance, filtered by m, then ranked by two windows, one per
  // direction. The reference for `MutualTopK`'s grouped kernel; each entry
  // takes and returns what the `MutualTopK` entry of the same name does.

  /** Which candidates a search compares, given each side's tag: all of
    * them (untagged), those of one table pair, or those of every two
    * sources, ranked per partner source.
    */
  private sealed trait Scope
  private case object TwoTables extends Scope
  private case object ByTablePair extends Scope
  private case object BySource extends Scope

  def mutualPairs(left: DataFrame, right: DataFrame, k: Int, m: Double, cfg: AnnConfig): DataFrame =
    search(left, right, TwoTables, k, m, cfg)

  def mutualPairsByTablePair(items: DataFrame, k: Int, m: Double, cfg: AnnConfig): DataFrame = {
    val tagged = items.withColumn("pair", shiftright(col("t"), 1))
    search(tagged.filter(col("t") % 2 === 0), tagged.filter(col("t") % 2 === 1), ByTablePair, k, m, cfg)
  }

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
    // mode equi-joins exploded blocking keys and joins the vectors onto the
    // deduplicated candidate ids.
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
    // by the partner id).
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
