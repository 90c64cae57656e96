package repro.embed

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Configuration for the hashed bag-of-features sentence encoder.
  *
  * @param dim embedding dimensionality (paper: 384-d MiniLM; we default to
  *            128 hashed dims, plenty for short entity strings)
  */
case class EmbedConfig(dim: Int = 128)

/** Sentence-BERT substitute: a deterministic, corpus-aware hashed
  * bag-of-features encoder, built from DataFrame ops (explode / groupBy /
  * join) so representation is itself distributed dataflow.
  *
  * Features per entity text: lower-cased word tokens plus char-trigrams of
  * each token. Each feature f carries weight
  *
  *   w(f) = unit(f) · min(log(1 + df), log(1 + D/df))
  *
  * where df is the feature's document frequency over the corpus and D the
  * corpus size. The band-pass shape mimics the two LM behaviours MultiEM's
  * EER module relies on (Example 1 of the paper): unique gibberish (IDs,
  * df≈1) and ubiquitous low-information tokens (df≈D) both contribute
  * little, while mid-frequency content words (titles, artists, names)
  * dominate the embedding. Features are hashed into `dim` signed buckets
  * (murmur3 via Spark's `hash`) and the vector is L2-normalised.
  */
object Embedder {

  /** Unit weight of a char-trigram feature relative to a whole-word feature
    * (trigrams provide typo robustness but must not let long gibberish
    * tokens dominate).
    */
  val TrigramWeight = 0.25

  /** Unit weight of a numeric-majority word token — numbers carry weak
    * semantics for sentence encoders, which is what lets EER demote
    * coordinate/length/year attributes (Table VII).
    */
  val NumericWeight = 0.4

  /** Truncate the serialized text to this many word tokens (the paper caps
    * sequence length at 64).
    */
  val MaxTokens = 64

  /** Paper §II-B serialization: concatenate attribute values, omit names. */
  def serialize(df: DataFrame, attrs: Seq[String], out: String = "text"): DataFrame = {
    require(attrs.nonEmpty, "serialize needs at least one attribute")
    df.withColumn(out, lower(concat_ws(" ", attrs.map(a => coalesce(col(a).cast("string"), lit(""))): _*)))
  }

  /** Word tokens (lower-cased, split on non-alphanumerics, truncated). */
  private def tokensOf(text: String): Array[String] =
    text.toLowerCase.split("[^\\p{L}\\p{N}]+").filter(_.nonEmpty).take(MaxTokens)

  /** True when a token is mostly digits (coordinates, codes, years…). */
  private[embed] def isNumericToken(t: String): Boolean =
    t.nonEmpty && t.count(_.isDigit) * 2 > t.length

  /** All (feature, unitWeight) pairs of one text: words + char-trigrams.
    *
    * Numeric-majority tokens emit no trigrams: a number is an atomic symbol
    * whose character sub-patterns carry no semantics (an LM is likewise
    * insensitive to digit n-grams), and jittered continuous values would
    * otherwise earn unmerited mid-frequency trigram mass and distort
    * attribute selection.
    */
  def featuresOf(text: String): Seq[(String, Double)] = {
    val toks = tokensOf(if (text == null) "" else text)
    val words = toks.map(t => ("w:" + t, if (isNumericToken(t)) NumericWeight else 1.0))
    val tris = toks.flatMap { t =>
      if (t.length <= 3 || isNumericToken(t)) Seq.empty[(String, Double)]
      else (0 to t.length - 3).map(i => ("t:" + t.substring(i, i + 3), TrigramWeight)).toSeq
    }
    (words ++ tris).toSeq
  }

  private val featuresUdf = udf((text: String) => featuresOf(text))

  /** Explode a (id, textCol) frame into (id, feature, unit) rows.
    *
    * @param cfg unused: features do not depend on the embedding dimension
    */
  def explodeFeatures(df: DataFrame, idCol: String, textCol: String, cfg: EmbedConfig): DataFrame =
    explodeWith(explode)(df, idCol, textCol)

  /** As [[explodeFeatures]], but an id whose text yields no feature keeps one
    * row with a null feature and unit: the frame the vector and key kernels
    * read, so that every input id reaches their output.
    */
  private[repro] def explodeFeaturesOuter(df: DataFrame, idCol: String, textCol: String): DataFrame =
    explodeWith(explode_outer)(df, idCol, textCol)

  private def explodeWith(gen: Column => Column)(df: DataFrame, idCol: String, textCol: String) =
    df.select(col(idCol), gen(featuresUdf(col(textCol))) as "fu")
      .select(col(idCol), col("fu._1") as "feature", col("fu._2") as "unit")

  /** Corpus band-pass weights: (feature, weight) from document frequencies
    * over `corpusSize` documents.
    *
    * This table is the stand-in for "what the pretrained model understands".
    * The representation step (`MultiEm.representWithKeys`) builds it once
    * over the whole corpus (all tables concatenated, D = the entity count).
    * Algorithm 1 (`AttributeSelection.select`) builds its own over the
    * unshuffled sample (D = the n sampled rows) and reuses it for every
    * shuffled variant — a pretrained LM's token knowledge likewise does not
    * change when attribute values are permuted. So EER's scores depend on n.
    */
  def featureWeights(feats: DataFrame, idCol: String, corpusSize: Long): DataFrame = {
    val d = math.max(1L, corpusSize).toDouble
    feats
      .groupBy("feature")
      .agg(countDistinct(col(idCol)) as "df")
      .withColumn("weight", least(log(lit(1.0) + col("df")), log(lit(1.0) + lit(d) / col("df"))))
      .select("feature", "df", "weight")
  }

  /** Blocking keys for approximate candidate generation (meta-blocking, the
    * HNSW substitute's first stage): each entity's `topB` heaviest features
    * yield C(topB, 2) pairwise signature keys — near-duplicates share most
    * top features, so they collide on at least one combo even under typos —
    * plus each individually *rare* top feature (df ≤ rareDf) as a key of its
    * own, which buys recall at negligible bucket cost. The texts are
    * exploded once; see [[keysOf]].
    *
    * @return (idCol, keys: Array[Long]) — one row per input id; entities
    *         with no weighted feature (an empty text, or features all absent
    *         from `weights`) get a single sentinel key unique to them (so
    *         they collide with nothing).
    * @param cfg unused: keys do not depend on the embedding dimension
    */
  def blockingKeys(
      df: DataFrame,
      idCol: String,
      textCol: String,
      weights: DataFrame,
      cfg: EmbedConfig,
      topB: Int,
      rareDf: Long,
  ): DataFrame =
    keysOf(explodeFeaturesOuter(df, idCol, textCol), idCol, weights, topB, rareDf)

  /** The key kernel of [[blockingKeys]] over an [[explodeFeaturesOuter]]
    * frame: one left join onto the weights and one `groupBy(id)`, so each id
    * of `feats` gets exactly one row.
    */
  private[repro] def keysOf(feats: DataFrame, idCol: String, weights: DataFrame, topB: Int, rareDf: Long): DataFrame = {
    val keysUdf = udf((id: Long, fws: Seq[org.apache.spark.sql.Row]) => {
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
    feats
      .join(weights, Seq("feature"), "left")
      .groupBy(col(idCol))
      // null-feature and unweighted rows add nothing (collect_list skips nulls)
      .agg(collect_list(when(col("weight").isNotNull,
        struct(col("feature"), col("df"), (col("unit") * col("weight")) as "w"))) as "fws")
      .select(col(idCol), keysUdf(col(idCol), col("fws")) as "keys")
  }

  /** Bucket index and sign of a feature under murmur3 hashing. */
  private def bucketCols(cfg: EmbedConfig): (Column, Column) = {
    val idx = pmod(hash(col("feature")), lit(cfg.dim))
    val sgn = when(pmod(hash(concat(col("feature"), lit("#sign"))), lit(2)) === 0, lit(1.0)).otherwise(lit(-1.0))
    (idx, sgn)
  }

  private def assembleUdf(dim: Int) =
    udf((pairs: Seq[org.apache.spark.sql.Row]) => {
      val v = new Array[Double](dim)
      pairs.foreach(r => v(r.getInt(0)) += r.getDouble(1))
      VecOps.normalize(v)
    })

  /** Embed using a precomputed weight table (the common path: weights are
    * computed once per run over the full corpus, embeddings possibly many
    * times, e.g. during attribute selection). The texts are exploded once;
    * see [[vectorsOf]].
    *
    * @return (idCol, vec: Array[Double] of length cfg.dim), one row per id
    *         present in `df`; an id with no weighted feature (an empty text,
    *         or features all absent from `weights`) gets the zero vector.
    */
  def embedWithWeights(
      df: DataFrame,
      idCol: String,
      textCol: String,
      weights: DataFrame,
      cfg: EmbedConfig,
  ): DataFrame =
    vectorsOf(explodeFeaturesOuter(df, idCol, textCol), idCol, weights, cfg)

  /** The vector kernel of [[embedWithWeights]] over an
    * [[explodeFeaturesOuter]] frame: left join onto the weights, one sum per
    * (id, bucket), one `groupBy(id)`, assemble. This shape fixes the
    * summation order the run's outputs depend on; each id of `feats` gets
    * exactly one row.
    */
  private[repro] def vectorsOf(feats: DataFrame, idCol: String, weights: DataFrame, cfg: EmbedConfig): DataFrame = {
    val (idx, sgn) = bucketCols(cfg)
    feats
      .join(weights, Seq("feature"), "left")
      .select(col(idCol), idx as "idx", (sgn * col("unit") * col("weight")) as "contrib")
      .groupBy(col(idCol), col("idx"))
      .agg(sum("contrib") as "v")
      .groupBy(col(idCol))
      // a bucket with only null contributions is absent; no bucket at all is the zero vector
      .agg(collect_list(when(col("v").isNotNull, struct(col("idx"), col("v")))) as "pairs")
      .select(col(idCol), assembleUdf(cfg.dim)(col("pairs")) as "vec")
  }
}
