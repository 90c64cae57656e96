package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.embed.{EmbedConfig, Embedder, VecOps, WeightTable}

/** Result of Algorithm 1: per-attribute significance scores and selection.
  *
  * @param scores   attr → mean embedding displacement when that attribute's
  *                 values are shuffled across entities
  * @param selected attributes whose score is ≥ γ · max(score), in schema order
  */
case class AttrSelection(scores: Map[String, Double], selected: Seq[String])

/** Enhanced Entity Representation — automated attribute selection
  * (paper §III-B, Algorithm 1).
  *
  * For each attribute: shuffle its values across the (sampled) entities,
  * re-embed, and average the per-entity cosine distance between old and new
  * embeddings. Spark samples and numbers the rows, and one `collect` brings
  * the r·N numbered rows to the driver, which builds the sample's weight
  * table and scores the base and all |A| shuffled variants with the
  * encoder kernel (`Embedder.vector`).
  * Attributes whose shuffled-displacement score is large carry signal the
  * encoder responds to (titles, names); attributes whose score is small
  * (unique IDs, ubiquitous codes) are dropped.
  *
  * γ here thresholds the score *relative to the maximum* (score/max ≥ γ),
  * which matches the paper's "select more significant attributes based on a
  * threshold γ"; its value is re-centred for our encoder (DESIGN.md).
  */
object AttributeSelection {

  /** @param df          all tables concatenated: (idCol, attrs…)
    * @param attrs       candidate attribute columns
    * @param sampleRatio r — fraction of rows used to score (Algorithm 1 line 2)
    * @param gamma       relative threshold γ
    */
  def select(
      df: DataFrame,
      idCol: String,
      attrs: Seq[String],
      sampleRatio: Double,
      gamma: Double,
      cfg: EmbedConfig,
      seed: Long,
  ): AttrSelection = {
    require(attrs.nonEmpty, "no attributes to select from")
    if (attrs.size == 1) return AttrSelection(Map(attrs.head -> 1.0), attrs)

    // Derangement-ish shuffle: order the sampled rows by a salted hash and
    // give each row the attribute value of its predecessor (a cyclic shift
    // of a pseudo-random permutation). The numbered sample is small (r·N
    // rows) and is scored on the driver. Each value is collected as
    // `Embedder.serialize` writes it, so a text is its values joined by a
    // space.
    val rows = df.sample(withReplacement = false, math.min(1.0, sampleRatio), seed)
      .select((row_number().over(Window.orderBy(hash(col(idCol), lit(seed.toInt)))) as "__rn") +:
        attrs.map(a => lower(coalesce(col(a).cast("string"), lit("")))): _*)
      .collect()
      .sortBy(_.getInt(0))
      .map(r => attrs.indices.map(i => r.getString(i + 1)).toVector)
    val n = rows.length
    if (n < 2) return AttrSelection(attrs.map(_ -> 1.0).toMap, attrs)

    // The corpus weight table is computed once over the unshuffled sample and
    // reused for every variant (the encoder's "knowledge" must not change
    // when values are permuted).
    val base = rows.map(_.mkString(" "))
    val dfs = base.toSeq.flatMap(Embedder.distinctFeatures).groupMapReduce(identity)(_ => 1L)(_ + _)
    val table = WeightTable.ofCounts(dfs, n, cfg.dim)
    val vec0 = base.map(Embedder.vector(_, table))
    val scores = attrs.indices.map { a =>
      val dist = rows.indices.map { i =>
        val variant = rows(i).updated(a, rows((i + n - 1) % n)(a)).mkString(" ")
        VecOps.cosineDist(vec0(i), Embedder.vector(variant, table))
      }
      attrs(a) -> dist.sum / n
    }.toMap

    AttrSelection(scores, selectByScore(scores, attrs, gamma))
  }

  /** The γ rule: keep the attributes (in schema order) whose score is
    * ≥ γ · max(score); keep all when every score is ~0 (nothing to rank by);
    * fall back to the top-1 attribute when none passes.
    */
  def selectByScore(scores: Map[String, Double], attrs: Seq[String], gamma: Double): Seq[String] = {
    val maxScore = scores.values.max
    val selected =
      if (maxScore <= 1e-12) attrs
      else attrs.filter(a => scores(a) >= gamma * maxScore)
    if (selected.nonEmpty) selected else attrs.sortBy(a => -scores(a)).take(1)
  }
}
