package repro.embed

import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestUtil}
import repro.ann.AnnConfig
import repro.core.MultiEm
import repro.data.EmDataGen

class EmbedderSpec extends SparkSpec {

  private val cfg = EmbedConfig(dim = 64)
  private val keyed = AnnConfig(exact = false)

  private def embedTexts(texts: Seq[String]): Map[Long, Array[Double]] = {
    import spark.implicits._
    val df = texts.zipWithIndex.map { case (t, i) => (i.toLong, t) }.toDF("eid", "text")
    val weights = Embedder.featureWeights(Embedder.explodeFeatures(df, "eid", "text", cfg), "eid", df.count())
    val emb = Embedder.embedWithWeights(df, "eid", "text", weights, cfg)
    emb.collect().map(r => r.getLong(0) -> r.getSeq[Double](1).toArray).toMap
  }

  // ------------------------------------------------------- serialization --

  test("serialize concatenates attribute values in order, lower-cased") {
    import spark.implicits._
    val df = Seq((1L, "Apple iPhone", "Silver")).toDF("eid", "title", "color")
    val out = Embedder.serialize(df, Seq("title", "color")).select("text").collect()(0).getString(0)
    assert(out == "apple iphone silver")
  }

  test("serialize tolerates null attribute values") {
    import spark.implicits._
    val df = Seq((1L, Option.empty[String], Option("x"))).toDF("eid", "a", "b")
    val out = Embedder.serialize(df, Seq("a", "b")).select("text").collect()(0).getString(0)
    assert(out.trim == "x")
  }

  test("serialize requires at least one attribute") {
    import spark.implicits._
    val df = Seq((1L, "x")).toDF("eid", "a")
    intercept[IllegalArgumentException](Embedder.serialize(df, Seq.empty))
  }

  // ------------------------------------------------------------ features --

  test("featuresOf emits word features for every token") {
    val fs = Embedder.featuresOf("apple iphone 8").map(_._1)
    assert(fs.contains("w:apple") && fs.contains("w:iphone") && fs.contains("w:8"))
  }

  test("featuresOf emits char trigrams for tokens longer than 3") {
    val fs = Embedder.featuresOf("apple").map(_._1)
    assert(fs.contains("t:app") && fs.contains("t:ppl") && fs.contains("t:ple"))
  }

  test("featuresOf emits no trigrams for short tokens") {
    val fs = Embedder.featuresOf("ab cde").map(_._1)
    assert(!fs.exists(_.startsWith("t:")))
    assert(fs == Seq("w:ab", "w:cde"))
  }

  test("featuresOf weights trigrams below words") {
    val fs = Embedder.featuresOf("apple").toMap
    assert(fs("w:apple") == 1.0)
    assert(fs("t:app") == Embedder.TrigramWeight)
  }

  test("featuresOf splits on punctuation and is case-insensitive") {
    val fs = Embedder.featuresOf("Tim-O'Brien").map(_._1)
    assert(fs.contains("w:tim") && fs.contains("w:o") && fs.contains("w:brien"))
  }

  test("featuresOf truncates at maxTokens (paper caps sequence length)") {
    val text = (1 to 100).map(i => s"tok$i").mkString(" ")
    val fs = Embedder.featuresOf(text).filter(_._1.startsWith("w:"))
    assert(Embedder.MaxTokens == 64)
    assert(fs.size == Embedder.MaxTokens)
  }

  test("numeric-majority tokens emit no trigrams (atomic symbols)") {
    val fs = Embedder.featuresOf("47.1234").map(_._1)
    assert(fs.contains("w:47") && fs.contains("w:1234"))
    assert(!fs.exists(_.startsWith("t:")), "digit trigrams must be suppressed")
    // mixed token with majority letters keeps its trigrams
    assert(Embedder.featuresOf("abcd1").map(_._1).contains("t:abc"))
  }

  test("isNumericToken classifies by digit majority") {
    assert(Embedder.isNumericToken("1234"))
    assert(Embedder.isNumericToken("12a4"))
    assert(!Embedder.isNumericToken("ab1"))
    assert(!Embedder.isNumericToken("wom14"))
  }

  test("featuresOf of null/empty is empty") {
    assert(Embedder.featuresOf(null).isEmpty)
    assert(Embedder.featuresOf("").isEmpty)
    assert(Embedder.featuresOf("  ").isEmpty)
  }

  // ------------------------------------------------------------- weights --

  test("featureWeights are band-pass: rare and ubiquitous features score low") {
    import spark.implicits._
    // feature "mid" occurs in 10 of 100 docs, "rare" in 1, "ubiq" in all 100
    val rows =
      (0 until 100).map(i => (i.toLong, "ubiq" + (if (i < 10) " mid" else "") + (if (i == 0) " rare" else "")))
    val df = rows.toDF("eid", "text")
    val feats = Embedder.explodeFeatures(df, "eid", "text", cfg)
    val w = Embedder.featureWeights(feats, "eid", 100).select("feature", "weight")
      .collect().map(r => r.getString(0) -> r.getDouble(1)).toMap
    assert(w("w:mid") > w("w:rare"), "mid-frequency must outweigh unique gibberish")
    assert(w("w:mid") > w("w:ubiq"), "mid-frequency must outweigh ubiquitous tokens")
  }

  test("featureWeights: df=1 weight is log(2)") {
    import spark.implicits._
    val df = Seq((0L, "solo"), (1L, "other")).toDF("eid", "text")
    val feats = Embedder.explodeFeatures(df, "eid", "text", cfg)
    val w = Embedder.featureWeights(feats, "eid", 2).select("feature", "weight")
      .collect().map(r => r.getString(0) -> r.getDouble(1)).toMap
    assert(math.abs(w("w:solo") - math.log(2)) < 1e-9)
  }

  // ---------------------------------------------------------- embeddings --

  test("embeddings are unit-length") {
    val m = embedTexts(Seq("apple iphone 8 plus", "samsung galaxy s9", "apple iphone 8"))
    m.values.foreach { v =>
      assert(math.abs(math.sqrt(v.map(x => x * x).sum) - 1.0) < 1e-9)
    }
  }

  test("embedding dimension matches the config") {
    val m = embedTexts(Seq("hello world"))
    assert(m(0L).length == cfg.dim)
  }

  test("identical texts embed identically") {
    val m = embedTexts(Seq("apple iphone 8 plus silver", "apple iphone 8 plus silver", "unrelated thing entirely"))
    assert(VecOps.cosineDist(m(0L).toSeq, m(1L).toSeq) < 1e-9)
  }

  test("near-duplicate (typo) texts are much closer than unrelated texts") {
    val m = embedTexts(Seq(
      "apple iphone 8 plus 64gb silver",
      "aplpe iphone 8 plus 64gb silvr",
      "leather sofa three seats brown"))
    val dNear = VecOps.cosineDist(m(0L).toSeq, m(1L).toSeq)
    val dFar = VecOps.cosineDist(m(0L).toSeq, m(2L).toSeq)
    assert(dNear < dFar, s"near=$dNear far=$dFar")
    assert(dNear < 0.5)
    assert(dFar > 0.8)
  }

  test("token-dropped variant stays close") {
    val m = embedTexts(Seq(
      "midnight river golden shadow dancing",
      "midnight river golden shadow",
      "completely different words here altogether"))
    assert(VecOps.cosineDist(m(0L).toSeq, m(1L).toSeq) < VecOps.cosineDist(m(0L).toSeq, m(2L).toSeq))
  }

  test("word order does not change the embedding (bag of features)") {
    val m = embedTexts(Seq("alpha beta gamma", "gamma alpha beta", "unrelated tokens set"))
    assert(VecOps.cosineDist(m(0L).toSeq, m(1L).toSeq) < 1e-9)
  }

  test("embedding is deterministic across calls") {
    val m1 = embedTexts(Seq("deterministic output please", "other text"))
    val m2 = embedTexts(Seq("deterministic output please", "other text"))
    assert(m1(0L).toSeq == m2(0L).toSeq)
  }

  test("feature-less rows get the zero vector") {
    val m = embedTexts(Seq("", "real text here"))
    assert(m(0L).forall(_ == 0.0))
    assert(m(1L).exists(_ != 0.0))
  }

  test("unique gibberish id contributes little vs shared content words") {
    // Same title, different random ids → should stay close; different title,
    // same id style → far. This is the Example 1 behaviour EER relies on.
    val texts = Seq(
      "wom14513028 megna s tim obrien chameleon",
      "wom94369364 megna s tim obrien chameleon",
      "wom14513028 completely different song title") ++
      // padding corpus so df statistics are meaningful
      (1 to 20).map(i => s"wom${10000000 + i * 1234567} artist$i title$i album$i")
    val m = embedTexts(texts)
    val dIdChanged = VecOps.cosineDist(m(0L).toSeq, m(1L).toSeq)
    val dContentChanged = VecOps.cosineDist(m(0L).toSeq, m(2L).toSeq)
    assert(dIdChanged < dContentChanged,
      s"id-swap dist $dIdChanged should be below content-swap dist $dContentChanged")
  }

  test("embedWithWeights reuses a fixed weight table") {
    import spark.implicits._
    val df = Seq((0L, "alpha beta"), (1L, "alpha gamma")).toDF("eid", "text")
    val feats = Embedder.explodeFeatures(df, "eid", "text", cfg)
    val w = Embedder.featureWeights(feats, "eid", 2)
    val e1 = Embedder.embedWithWeights(df, "eid", "text", w, cfg).collect()
    assert(e1.length == 2)
    // Embedding a subset under the same weights must give identical vectors.
    val sub = df.filter(col("eid") === 0L)
    val e2 = Embedder.embedWithWeights(sub, "eid", "text", w, cfg).collect()
    val v1 = e1.find(_.getLong(0) == 0L).get.getSeq[Double](1)
    val v2 = e2(0).getSeq[Double](1)
    assert(v1 == v2)
    // A text whose features are all absent from the table still gets a row:
    // the zero vector.
    val more = df.union(Seq((2L, "omega psi")).toDF("eid", "text"))
    val e3 = Embedder.embedWithWeights(more, "eid", "text", w, cfg)
      .collect().map(r => r.getLong(0) -> r.getSeq[Double](1)).toMap
    assert(e3.keySet == Set(0L, 1L, 2L))
    assert(e3(2L).length == cfg.dim && e3(2L).forall(_ == 0.0))
    assert(e3(0L) == v1)
  }

  test("blockingKeys: near-duplicates share a key, unrelated entities do not") {
    import spark.implicits._
    val rows = Seq(
      (0L, "midnight river golden shadow"),
      (1L, "midnight river goldan shadow"), // typo in one token
      (2L, "completely unrelated entity text")) ++
      (3 to 30).map(i => (i.toLong, s"filler$i words$i here$i"))
    val df = rows.toDF("eid", "text")
    val feats = Embedder.explodeFeatures(df, "eid", "text", cfg)
    val w = Embedder.featureWeights(feats, "eid", rows.size)
    val keys = Embedder.blockingKeys(df, "eid", "text", w, cfg, keyed.topB, keyed.rareDf)
      .collect().map(r => r.getLong(0) -> r.getSeq[Long](1).toSet).toMap
    assert(keys(0L).intersect(keys(1L)).nonEmpty, "typo variants must share a key")
    assert(keys(0L).intersect(keys(2L)).isEmpty, "unrelated entities must not")
  }

  test("blockingKeys: every entity gets at least one key") {
    import spark.implicits._
    // eid 3 has features, but the weights come from eids 0-2 and know none
    // of them.
    val df = Seq((0L, "solo"), (1L, ""), (2L, "two words"), (3L, "omega psi")).toDF("eid", "text")
    val feats = Embedder.explodeFeatures(df.filter(col("eid") < 3L), "eid", "text", cfg)
    val w = Embedder.featureWeights(feats, "eid", 3)
    val keys = Embedder.blockingKeys(df, "eid", "text", w, cfg, keyed.topB, keyed.rareDf)
      .collect().map(r => r.getLong(0) -> r.getSeq[Long](1)).toMap
    assert(keys.size == 4)
    assert(keys.values.forall(_.nonEmpty))
    // the sentinel keys of the feature-less and the unweighted entity
    // collide with nothing
    for (id <- Seq(1L, 3L))
      assert(keys(id).toSet.intersect((keys - id).values.flatten.toSet).isEmpty)
  }

  test("representWithKeys equals the explode → weights → embedWithWeights / blockingKeys composition") {
    for (ds <- Seq(EmDataGen.geo(spark, scale = 0.05), EmDataGen.music(spark, 60L))) {
      val cols = ("eid" +: ds.attrs).map(col)
      val data = ds.df.select(cols: _*)
      // plus one row whose attributes yield no feature
      val blankId = data.agg(max("eid")).head().getLong(0) + 1
      val blank = data.limit(1).select(
        (lit(blankId) as "eid") +: ds.attrs.map(a => lit(null).cast(data.schema(a).dataType) as a): _*)
      val union = data.unionByName(blank).localCheckpoint()
      for (ann <- Seq(AnnConfig(exact = true), AnnConfig(exact = false))) {
        val got = MultiEm.representWithKeys(union, ds.attrs, cfg, ann)
          .collect().map(r => r.getLong(0) -> (r.getSeq[Double](1), r.getSeq[Long](2))).toMap
        val ser = Embedder.serialize(union, ds.attrs)
        val weights = Embedder.featureWeights(
          Embedder.explodeFeatures(ser, "eid", "text", cfg), "eid", union.count()).localCheckpoint()
        val vecs = Embedder.embedWithWeights(ser, "eid", "text", weights, cfg)
          .collect().map(r => r.getLong(0) -> r.getSeq[Double](1)).toMap
        val keys =
          if (ann.exact) vecs.map { case (id, _) => id -> Seq.empty[Long] }
          else Embedder.blockingKeys(ser, "eid", "text", weights, cfg, ann.topB, ann.rareDf)
            .collect().map(r => r.getLong(0) -> r.getSeq[Long](1)).toMap
        val where = s"${ds.name} exact=${ann.exact}"
        assert(got.size == union.count() && got.keySet == vecs.keySet && got.keySet == keys.keySet, where)
        got.foreach { case (id, (v, k)) =>
          assert(v.map(java.lang.Double.doubleToRawLongBits) == vecs(id).map(java.lang.Double.doubleToRawLongBits),
            s"$where: eid $id vector differs")
          assert(k == keys(id), s"$where: eid $id keys differ")
        }
        assert(got(blankId)._1.forall(_ == 0.0))
        assert(got(blankId)._2 == (if (ann.exact) Seq.empty[Long] else Seq(Long.MinValue | blankId)))
      }
    }
  }

  test("represent serializes selected attributes only") {
    import spark.implicits._
    val df = Seq(
      (0L, "shared title", "noiseA"),
      (1L, "shared title", "noiseB"),
    ).toDF("eid", "title", "junk")
    val embTitle = MultiEm.representWithKeys(df, Seq("title"), cfg, AnnConfig(exact = true))
    val m = embTitle.collect().map(r => r.getLong(0) -> r.getSeq[Double](1)).toMap
    assert(VecOps.cosineDist(m(0L), m(1L)) < 1e-9, "identical selected attrs ⇒ identical vectors")
  }
}
