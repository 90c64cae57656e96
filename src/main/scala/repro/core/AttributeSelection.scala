package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.embed.{EmbedConfig, Embedder, VecOps}

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
  * embeddings. The base and all |A| shuffled variants come from one
  * self-join of the numbered sample with itself shifted by one row, are
  * embedded in one stacked pass and are scored by one `groupBy(attr)`.
  * Attributes whose shuffled-displacement score is large carry signal the
  * encoder responds to (titles, names); attributes whose score is small
  * (unique IDs, ubiquitous codes) are dropped.
  *
  * γ here thresholds the score *relative to the maximum* (score/max ≥ γ),
  * which matches the paper's "select more significant attributes based on a
  * threshold γ"; the numeric grid is re-centred for our encoder (DESIGN.md).
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
      sampleRatio: Double = 0.2,
      gamma: Double = 0.5,
      cfg: EmbedConfig = EmbedConfig(),
      seed: Long = 7L,
  ): AttrSelection = {
    require(attrs.nonEmpty, "no attributes to select from")
    if (attrs.size == 1) return AttrSelection(Map(attrs.head -> 1.0), attrs)

    // Sampled on the input partitions, then gathered into the one partition
    // the numbering window needs anyway.
    val sampled = df.sample(withReplacement = false, math.min(1.0, sampleRatio), seed)
      .select((col(idCol) +: attrs.map(col)): _*)
      .coalesce(1)
      .localCheckpoint()
    val n = sampled.count()
    if (n < 2) return AttrSelection(attrs.map(_ -> 1.0).toMap, attrs)

    // The corpus weight table is computed once over the unshuffled sample and
    // reused for every variant (the encoder's "knowledge" must not change
    // when values are permuted).
    val feats = Embedder.explodeFeatures(Embedder.serialize(sampled, attrs), idCol, "text", cfg)
    val weights = Embedder.featureWeights(feats, idCol, n)

    // Derangement-ish shuffle: order rows by a salted hash and give each row
    // the attribute value of its predecessor (cyclic shift of a pseudo-random
    // permutation) — a pure DataFrame formulation of "shuffle the values".
    // One self-join pairs every row with its donor; a generator then emits
    // the base (variant "", unshuffled) and the |A| variants, each taking one
    // attribute from the donor, and one embedding pass encodes all of them.
    val withRn = sampled.withColumn("__rn", row_number().over(Window.orderBy(hash(col(idCol), lit(seed.toInt)))))
    val donor = withRn.select(((col("__rn") % n) + 1) +: attrs.map(col): _*)
      .toDF("__rn" +: attrs.map("__donor_" + _): _*)
    val variants = ("" +: attrs).map { v =>
      struct((lit(v) as "__attr") +: attrs.map(a => col(if (a == v) "__donor_" + a else a) as a): _*)
    }
    val stacked = withRn.join(donor, Seq("__rn"))
      .select(col(idCol), explode(array(variants: _*)) as "__v")
      .select(struct(col("__v.__attr"), col(idCol)) as "__key", col("__v.*"))
    val emb = Embedder.embedWithWeights(Embedder.serialize(stacked, attrs), "__key", "text", weights, cfg)
      .select(col("__key.__attr") as "__attr", col(s"__key.$idCol") as idCol, col("vec"))
      .localCheckpoint()
    val base = emb.filter(col("__attr") === "").select(col(idCol), col("vec") as "vec0")
    val scores = base
      .join(emb.filter(col("__attr") =!= ""), Seq(idCol))
      .groupBy("__attr")
      .agg(avg(VecOps.cosineDistCol(col("vec0"), col("vec"))) as "s")
      .collect()
      .map(r => r.getString(0) -> r.getDouble(1))
      .toMap

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
