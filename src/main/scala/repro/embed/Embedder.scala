package repro.embed

import java.nio.charset.StandardCharsets
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.unsafe.Platform
import org.apache.spark.unsafe.hash.Murmur3_x86_32

/** Configuration for the hashed bag-of-features sentence encoder.
  *
  * @param dim embedding dimensionality (paper: 384-d MiniLM; we default to
  *            128 hashed dims, plenty for short entity strings)
  */
case class EmbedConfig(dim: Int = 128)

/** Sentence-BERT substitute: a deterministic, corpus-aware hashed
  * bag-of-features encoder.
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
  * (murmur3, as Spark's `hash`) and the vector is L2-normalised.
  *
  * The encoder is one pure-Scala kernel, [[vector]] and [[keys]] of one
  * text under a driver-held [[WeightTable]]; Spark ships the table to its
  * tasks as a broadcast and applies the kernel in one narrow pass, one
  * output row per input row.
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

  /** Explode a (id, textCol) frame into (id, feature, unit) rows; a text
    * with no feature yields no row.
    *
    * @param cfg unused: features do not depend on the embedding dimension
    */
  def explodeFeatures(df: DataFrame, idCol: String, textCol: String, cfg: EmbedConfig): DataFrame =
    df.select(col(idCol), explode(featuresUdf(col(textCol))) as "fu")
      .select(col(idCol), col("fu._1") as "feature", col("fu._2") as "unit")

  /** The band-pass weight min(log(1 + df), log(1 + D/df)) of a feature in
    * `df` of `corpusSize` documents. `StrictMath.log` is what Spark's `log`
    * computes, so a frame and a driver table built from it agree bit for bit.
    */
  def bandPass(df: Long, corpusSize: Long): Double = {
    val d = math.max(1L, corpusSize).toDouble
    math.min(StrictMath.log(1.0 + df), StrictMath.log(1.0 + d / df))
  }

  private def bandPassUdf(corpusSize: Long) = udf((df: Long) => bandPass(df, corpusSize))

  /** Corpus band-pass weights: (feature, df, weight) from document
    * frequencies over `corpusSize` documents.
    *
    * This table is the stand-in for "what the pretrained model understands".
    * The representation step (`MultiEm.representWithKeys`) builds it once
    * over the whole corpus (all tables concatenated, D = the entity count),
    * as a driver-held [[WeightTable]] from the same [[bandPass]]. Algorithm 1
    * (`AttributeSelection.select`) builds its own over the unshuffled sample
    * (D = the n sampled rows) and reuses it for every shuffled variant — a
    * pretrained LM's token knowledge likewise does not change when attribute
    * values are permuted. So EER's scores depend on n.
    */
  def featureWeights(feats: DataFrame, idCol: String, corpusSize: Long): DataFrame =
    feats
      .groupBy("feature")
      .agg(countDistinct(col(idCol)) as "df")
      .withColumn("weight", bandPassUdf(corpusSize)(col("df")))
      .select("feature", "df", "weight")

  // ------------------------------------------------------------- kernel --

  /** Spark's `hash` seed: the kernel hashes features as Spark's `hash` does. */
  private val HashSeed = 42

  private def sparkHash(s: String): Int = {
    val b = s.getBytes(StandardCharsets.UTF_8)
    Murmur3_x86_32.hashUnsafeBytes(b, Platform.BYTE_ARRAY_OFFSET, b.length, HashSeed)
  }

  /** Bucket of a feature: Spark's `pmod(hash(feature), dim)`. */
  def bucketOf(feature: String, dim: Int): Int = Math.floorMod(sparkHash(feature), dim)

  /** Sign of a feature: +1 when Spark's `pmod(hash(feature + "#sign"), 2)` is 0, else −1. */
  def signOf(feature: String): Double = if (Math.floorMod(sparkHash(feature + "#sign"), 2) == 0) 1.0 else -1.0

  /** The distinct features of one text, the unit of a document frequency. */
  def distinctFeatures(text: String): Seq[String] = featuresOf(text).map(_._1).distinct

  /** Blocking keys for approximate candidate generation (meta-blocking, the
    * HNSW substitute's first stage): each entity's `topB` heaviest features
    * yield C(topB, 2) pairwise signature keys — near-duplicates share most
    * top features, so they collide on at least one combo even under typos —
    * plus each individually *rare* top feature (df ≤ rareDf) as a key of its
    * own, which buys recall at negligible bucket cost. An entity with no
    * weighted feature (an empty text, or features all absent from the table)
    * gets a single sentinel key unique to its id, so it collides with nothing.
    */
  def keys(id: Long, text: String, table: WeightTable, topB: Int, rareDf: Long): Array[Long] = {
    val top = featuresOf(text)
      .flatMap { case (f, unit) => table.features.get(f).map(w => (f, w.df, unit * w.weight)) }
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
    val ks = (combos ++ rare).distinct
    if (ks.nonEmpty) ks.toArray else Array(Long.MinValue | id)
  }

  /** The embedding of one text: sign · unit · weight of each weighted
    * feature added into its bucket in [[featuresOf]] order, then
    * L2-normalised. A text with no weighted feature gets the zero vector.
    */
  def vector(text: String, table: WeightTable): Array[Double] = {
    val v = new Array[Double](table.dim)
    featuresOf(text).foreach { case (f, unit) =>
      table.features.get(f).foreach(w => v(w.bucket) += w.sign * unit * w.weight)
    }
    VecOps.normalize(v)
  }

  /** The weight table of a `featureWeights` frame, collected to the driver. */
  private def collectTable(weights: DataFrame, cfg: EmbedConfig): WeightTable =
    WeightTable.of(weights.select("feature", "df", "weight").collect()
      .map(r => (r.getString(0), r.getLong(1), r.getDouble(2))), cfg.dim)

  /** Embed using a precomputed weight table (a `featureWeights` frame): the
    * table is collected to the driver and [[vector]] is applied to each row
    * in one narrow pass.
    *
    * @return (idCol, vec: Array[Double] of length cfg.dim), one row per input
    *         row, so ids must be unique; an id with no weighted feature gets
    *         the zero vector.
    */
  def embedWithWeights(
      df: DataFrame,
      idCol: String,
      textCol: String,
      weights: DataFrame,
      cfg: EmbedConfig,
  ): DataFrame = {
    val table = df.sparkSession.sparkContext.broadcast(collectTable(weights, cfg))
    val vecUdf = udf((text: String) => vector(text, table.value))
    df.select(col(idCol), vecUdf(col(textCol)) as "vec")
  }

  /** [[keys]] of each row under a precomputed weight table (a
    * `featureWeights` frame), collected to the driver and applied in one
    * narrow pass.
    *
    * @return (idCol, keys: Array[Long]), one row per input row, so ids must
    *         be unique
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
  ): DataFrame = {
    val table = df.sparkSession.sparkContext.broadcast(collectTable(weights, cfg))
    val keysUdf = udf((id: Long, text: String) => keys(id, text, table.value, topB, rareDf))
    df.select(col(idCol), keysUdf(col(idCol), col(textCol)) as "keys")
  }
}

/** One feature's entry in a [[WeightTable]]: its document frequency, its
  * band-pass weight, and its hashed bucket and sign.
  */
final case class FeatureWeight(df: Long, weight: Double, bucket: Int, sign: Double)

/** The driver-held weight table the encoder kernel reads, for `dim` buckets. */
final case class WeightTable(dim: Int, features: Map[String, FeatureWeight])

object WeightTable {

  /** A table from (feature, df, weight) entries. */
  def of(entries: Iterable[(String, Long, Double)], dim: Int): WeightTable =
    WeightTable(dim, entries.iterator.map { case (f, df, w) =>
      f -> FeatureWeight(df, w, Embedder.bucketOf(f, dim), Embedder.signOf(f))
    }.toMap)

  /** The band-pass table of document frequencies over `corpusSize` documents. */
  def ofCounts(dfs: Iterable[(String, Long)], corpusSize: Long, dim: Int): WeightTable =
    of(dfs.map { case (f, df) => (f, df, Embedder.bandPass(df, corpusSize)) }, dim)
}
