package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.{References, SparkSpec}
import repro.embed.{EmbedConfig, Embedder, VecOps}

class AttributeSelectionSpec extends SparkSpec {

  private val defaults = MultiEmConfig()

  /** Algorithm 1 on the pipeline's encoder, by `eid`. */
  private def select(df: DataFrame, attrs: Seq[String], sampleRatio: Double, gamma: Double,
                     seed: Long = defaults.seed): AttrSelection =
    AttributeSelection.select(df, "eid", attrs, sampleRatio, gamma, defaults.embed, seed)

  /** A corpus where `title` carries shared mid-frequency content words and
    * `id` carries unique gibberish — EER must score title ≫ id.
    */
  private def corpus(n: Int = 60): DataFrame = {
    import spark.implicits._
    val words = Array("river", "midnight", "golden", "shadow", "dancing", "broken", "silver", "summer")
    val rnd = new scala.util.Random(3)
    (0 until n).map { i =>
      val title = Seq.fill(3)(words(rnd.nextInt(words.length))).mkString(" ")
      val id = "zx" + (100000 + rnd.nextInt(900000))
      (i.toLong, title, id)
    }.toDF("eid", "title", "id")
  }

  test("informative attribute scores above gibberish id") {
    val sel = select(corpus(), Seq("title", "id"), sampleRatio = 1.0, gamma = 0.5)
    assert(sel.scores("title") > sel.scores("id"),
      s"title=${sel.scores("title")} id=${sel.scores("id")}")
  }

  test("gamma thresholding keeps the informative attribute and drops the id") {
    val sel = select(corpus(), Seq("title", "id"), sampleRatio = 1.0, gamma = 0.5)
    assert(sel.selected == Seq("title"))
  }

  test("gamma = 0 keeps every attribute") {
    val sel = select(corpus(), Seq("title", "id"), sampleRatio = 1.0, gamma = 0.0)
    assert(sel.selected == Seq("title", "id"))
  }

  test("single attribute short-circuits to itself") {
    val sel = select(corpus(), Seq("title"), sampleRatio = 1.0, gamma = 0.9)
    assert(sel.selected == Seq("title"))
  }

  test("selection preserves schema order of kept attributes") {
    import spark.implicits._
    val rnd = new scala.util.Random(5)
    val words = Array("aaa", "bbb", "ccc", "ddd")
    val df = (0 until 40).map { i =>
      (i.toLong, words(rnd.nextInt(4)) + " " + words(rnd.nextInt(4)),
        words(rnd.nextInt(4)), "u" + rnd.nextInt(1000000))
    }.toDF("eid", "t1", "t2", "junk")
    val sel = select(df, Seq("t1", "t2", "junk"), 1.0, 0.2)
    assert(sel.selected == sel.selected.sortBy(Seq("t1", "t2", "junk").indexOf(_)))
  }

  test("at least one attribute is always selected (argmax fallback)") {
    val sel = select(corpus(), Seq("title", "id"), 1.0, gamma = 5.0)
    assert(sel.selected.nonEmpty)
    assert(sel.selected == Seq(sel.scores.maxBy(_._2)._1))
  }

  test("scores are reported for every candidate attribute") {
    val sel = select(corpus(), Seq("title", "id"), 1.0, 0.5)
    assert(sel.scores.keySet == Set("title", "id"))
    assert(sel.scores.values.forall(s => s >= 0.0 && s <= 2.0))
  }

  test("sampling ratio below 1 still ranks title over id") {
    val sel = select(corpus(200), Seq("title", "id"), sampleRatio = 0.3, gamma = 0.5)
    assert(sel.scores("title") > sel.scores("id"))
  }

  test("selection is deterministic in the seed") {
    val a = select(corpus(), Seq("title", "id"), 0.5, 0.5, seed = 9L)
    val b = select(corpus(), Seq("title", "id"), 0.5, 0.5, seed = 9L)
    assert(a.scores == b.scores && a.selected == b.selected)
  }

  /** Algorithm 1 one attribute at a time, on the dataflow reference
    * encoder (`References.embedWithWeights`): the same sample, weight table,
    * base vectors and cyclic shuffle as `select`, each variant embedded and
    * averaged by its own dataflow.
    */
  private def perAttributeScores(df: DataFrame, attrs: Seq[String], ratio: Double, seed: Long): Map[String, Double] = {
    val cfg = EmbedConfig()
    val sampled = df.sample(withReplacement = false, ratio, seed).select((col("eid") +: attrs.map(col)): _*)
    val n = sampled.count()
    val ser = Embedder.serialize(sampled, attrs)
    val weights = Embedder.featureWeights(Embedder.explodeFeatures(ser, "eid", "text", cfg), "eid", n)
    val base = References.embedWithWeights(ser, "eid", "text", weights, cfg).withColumnRenamed("vec", "vec0")
    val withRn = sampled.withColumn("rn", row_number().over(Window.orderBy(hash(col("eid"), lit(seed.toInt)))))
    attrs.map { attr =>
      val donor = withRn.select(((col("rn") % n) + 1) as "rn", col(attr) as "__shuffled")
      val shuffled = withRn.drop(attr).join(donor, Seq("rn")).withColumnRenamed("__shuffled", attr)
      val emb = References.embedWithWeights(Embedder.serialize(shuffled, attrs), "eid", "text", weights, cfg)
      attr -> base.join(emb, Seq("eid")).select(avg(VecOps.cosineDistCol(col("vec0"), col("vec")))).first().getDouble(0)
    }.toMap
  }

  test("one-dataflow scores equal a per-attribute reference") {
    import spark.implicits._
    val rnd = new scala.util.Random(8)
    val words = Array("river", "midnight", "golden", "shadow", "dancing", "broken", "silver", "summer")
    // Long texts exercise MaxTokens truncation of the serialized variants;
    // null values and an all-punctuation row give the base zero vectors.
    def unless(skip: Boolean)(v: String) = if (skip) None else Some(v)
    val df = ((0 until 80).map { i =>
      (i.toLong, unless(i % 9 == 4)(Seq.fill(3)(words(rnd.nextInt(8))).mkString(" ")),
        unless(i % 7 == 2)("zx" + rnd.nextInt(1000000)),
        unless(i % 5 == 1)(Seq.fill(70)(words(rnd.nextInt(8))).mkString(" ")),
        unless(i % 11 == 6)((1900 + rnd.nextInt(100)).toString))
    } ++ Seq((80L, Some("-- !!"), Some("#"), Some("..."), Some("?/?")), (81L, None, None, None, None)))
      .toDF("eid", "title", "id", "notes", "year").cache()
    val attrs = Seq("title", "id", "notes", "year")
    for ((ratio, gamma) <- Seq(1.0 -> 0.5, 0.5 -> 0.3)) {
      val sel = select(df, attrs, ratio, gamma, seed = 5L)
      val ref = perAttributeScores(df, attrs, ratio, 5L)
      assert(sel.scores.keySet == ref.keySet)
      attrs.foreach(a => assert(math.abs(sel.scores(a) - ref(a)) <= 1e-12, s"$a: ${sel.scores(a)} vs ${ref(a)}"))
      val max = ref.values.max
      assert(sel.selected == attrs.filter(a => ref(a) >= gamma * max))
    }
  }

  // ---------------------------------------------------------- the γ rule --

  test("selectByScore: all scores 0 keeps every attribute") {
    val scores = Map("a" -> 0.0, "b" -> 0.0, "c" -> 0.0)
    assert(AttributeSelection.selectByScore(scores, Seq("a", "b", "c"), 0.5) == Seq("a", "b", "c"))
  }

  test("selectByScore: a score exactly at gamma * max is kept") {
    val scores = Map("a" -> 0.8, "b" -> 0.4, "c" -> 0.39)
    assert(AttributeSelection.selectByScore(scores, Seq("a", "b", "c"), 0.5) == Seq("a", "b"))
  }

  test("selectByScore: when nothing passes, the top-1 attribute is kept") {
    // γ > 1 rejects even the maximum.
    val scores = Map("a" -> 0.2, "b" -> 0.6, "c" -> 0.4)
    assert(AttributeSelection.selectByScore(scores, Seq("a", "b", "c"), 1.5) == Seq("b"))
  }
}
