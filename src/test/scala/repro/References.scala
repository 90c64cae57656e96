package repro

import scala.collection.mutable
import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.ann.AnnConfig
import repro.baselines.PairMatcher
import repro.core.{MergeConfig, Merging}
import repro.embed.{EmbedConfig, Embedder, VecOps}

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
  // direction. The reference for `MutualTopK`'s grouped kernel: each entry
  // but `mutualPairsByTablePair` takes and returns what the `MutualTopK`
  // entry of the same name does.

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

  /** Mutual top-K pairs within each table pair of one frame (t, id, vec[,
    * keys]): table 2i meets only table 2i + 1, and an odd last table meets
    * none. The search each level of [[hierarchical]] runs.
    *
    * @return (lid, rid, dist, lpair, rpair) with t(lid) = 2·lpair and
    *         t(rid) = 2·rpair + 1, lpair = rpair
    */
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

  // ------------------------------------------------ hierarchical merging --

  /** Algorithms 2 and 3 level by level on the driver, from separately
    * materialised mutual pairs: each level's pairs from the windowed
    * [[mutualPairsByTablePair]], a union-find over them, and each component
    * merged from its items in id order (the minimum id, the members sorted,
    * the `VecOps.meanNormalized` centroid, the keys distinct and capped at
    * `Merging.MaxKeys`); unmatched items pass through; then t := t / 2. The
    * reference for `Merging.hierarchical` and `Merging.twoTableMerge`.
    *
    * @param items (t, id, members, vec, keys) of tables 0 until `nTables`
    * @return (id, members, vec, keys) of the single merged table, by id
    */
  def hierarchical(items: DataFrame, nTables: Int, cfg: MergeConfig): Seq[(Long, Seq[Long], Seq[Double], Seq[Long])] = {
    val spark = items.sparkSession
    import spark.implicits._
    val cols = Seq("t", "id", "members", "vec", "keys")
    var cur = items.select(cols.map(col): _*).as[(Int, Long, Seq[Long], Seq[Double], Seq[Long])].collect().toSeq
    var n = nTables
    while (n > 1) {
      val pairs = mutualPairsByTablePair(cur.toDF(cols: _*), cfg.k, cfg.m, cfg.ann)
        .select("lid", "rid").as[(Long, Long)].collect()
      val parent = mutable.Map(cur.map(x => x._2 -> x._2): _*)
      def find(x: Long): Long = if (parent(x) == x) x else { val r = find(parent(x)); parent(x) = r; r }
      pairs.foreach { case (l, r) =>
        val (x, y) = (find(l), find(r)); if (x != y) parent(math.max(x, y)) = math.min(x, y)
      }
      cur = cur.groupBy(x => find(x._2)).values.toSeq.map(_.sortBy(_._2)).map {
        case Seq((t, id, members, vec, keys)) => (t / 2, id, members, vec, keys)
        case its =>
          (its.head._1 / 2, its.head._2, its.flatMap(_._3).sorted, VecOps.meanNormalized(its.map(_._4)).toSeq,
            its.flatMap(_._5).distinct.take(Merging.MaxKeys))
      }
      n = (n + 1) / 2
    }
    cur.map(x => (x._2, x._3, x._4, x._5)).sortBy(_._1)
  }

  // ---------------------------------------------------- dataflow encoder --
  //
  // The encoder as DataFrame operations: explode each text's features
  // (`explode_outer`, so a feature-less id keeps one null-feature row),
  // left-join a `featureWeights` frame, sum each (id, bucket) and assemble,
  // or group each id's weighted features into its blocking keys. The
  // reference for `Embedder.vector` and `Embedder.keys`; bucket and sign are
  // Spark's `hash`, not the kernel's.

  private val featuresUdf = udf((text: String) => Embedder.featuresOf(text))

  private def explodeOuter(df: DataFrame, idCol: String, textCol: String): DataFrame =
    df.select(col(idCol), explode_outer(featuresUdf(col(textCol))) as "fu")
      .select(col(idCol), col("fu._1") as "feature", col("fu._2") as "unit")

  /** Bucket index and sign of a `feature` column under Spark's murmur3 `hash`. */
  def bucketCols(dim: Int): (Column, Column) = {
    val idx = pmod(hash(col("feature")), lit(dim))
    val sgn = when(pmod(hash(concat(col("feature"), lit("#sign"))), lit(2)) === 0, lit(1.0)).otherwise(lit(-1.0))
    (idx, sgn)
  }

  private def assembleUdf(dim: Int) =
    udf((pairs: Seq[Row]) => {
      val v = new Array[Double](dim)
      pairs.foreach(r => v(r.getInt(0)) += r.getDouble(1))
      VecOps.normalize(v)
    })

  /** (idCol, vec), one row per id: the zero vector when no feature is weighted. */
  def embedWithWeights(df: DataFrame, idCol: String, textCol: String, weights: DataFrame, cfg: EmbedConfig): DataFrame = {
    val (idx, sgn) = bucketCols(cfg.dim)
    explodeOuter(df, idCol, textCol)
      .join(weights, Seq("feature"), "left")
      .select(col(idCol), idx as "idx", (sgn * col("unit") * col("weight")) as "contrib")
      .groupBy(col(idCol), col("idx"))
      .agg(sum("contrib") as "v")
      .groupBy(col(idCol))
      // a bucket with only null contributions is absent; no bucket at all is the zero vector
      .agg(collect_list(when(col("v").isNotNull, struct(col("idx"), col("v")))) as "pairs")
      .select(col(idCol), assembleUdf(cfg.dim)(col("pairs")) as "vec")
  }

  /** (idCol, keys), one row per id: pair keys of the `topB` heaviest
    * features plus each rare one's own key; a sentinel key unique to the id
    * when no feature is weighted.
    */
  def blockingKeys(df: DataFrame, idCol: String, textCol: String, weights: DataFrame, topB: Int, rareDf: Long): DataFrame = {
    val keysUdf = udf((id: Long, fws: Seq[Row]) => {
      val top = fws
        .map(r => (r.getString(0), r.getLong(1), r.getDouble(2)))
        .distinctBy(_._1)
        .sortBy { case (f, _, w) => (-w, f) }
        .take(topB)
      val combos = for {
        i <- top.indices; j <- top.indices if i < j
      } yield {
        val (a, b) = (top(i)._1, top(j)._1)
        val (lo, hi) = if (a < b) (a, b) else (b, a)
        scala.util.hashing.MurmurHash3.stringHash(lo + "\u0000" + hi).toLong << 20
      }
      val rare = top.filter(_._2 <= rareDf)
        .map(t => scala.util.hashing.MurmurHash3.stringHash(t._1).toLong << 20 | 1L)
      val keys = (combos ++ rare).distinct
      if (keys.nonEmpty) keys.toArray else Array(Long.MinValue | id)
    })
    explodeOuter(df, idCol, textCol)
      .join(weights, Seq("feature"), "left")
      .groupBy(col(idCol))
      // null-feature and unweighted rows add nothing (collect_list skips nulls)
      .agg(collect_list(when(col("weight").isNotNull,
        struct(col("feature"), col("df"), (col("unit") * col("weight")) as "w"))) as "fws")
      .select(col(idCol), keysUdf(col(idCol), col("fws")) as "keys")
  }
}
