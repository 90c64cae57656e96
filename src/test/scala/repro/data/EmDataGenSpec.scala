package repro.data

import org.apache.spark.sql.functions._
import repro.SparkSpec

class EmDataGenSpec extends SparkSpec {

  private lazy val geo = EmDataGen.geo(spark, scale = 0.2, seed = 5L)
  private lazy val music = EmDataGen.music(spark, nTuples = 500L, seed = 5L)
  private lazy val person = EmDataGen.person(spark, scale = 0.002, seed = 5L)
  private lazy val shopee = EmDataGen.shopee(spark, scale = 0.05, seed = 5L)

  // --------------------------------------------------------------- schema --

  test("geo schema matches Table III (3 attrs, 4 sources)") {
    assert(geo.attrs == Seq("name", "longitude", "latitude"))
    assert(geo.nSources == 4)
    assert(geo.df.columns.toSet == Set("eid", "source", "cid") ++ geo.attrs)
  }

  test("music schema matches Table III (8 attrs, 5 sources)") {
    assert(music.attrs == Seq("id", "number", "title", "length", "artist", "album", "year", "language"))
    assert(music.nSources == 5)
  }

  test("person schema matches Table III (4 attrs, 5 sources)") {
    assert(person.attrs == Seq("givenname", "surname", "suburb", "postcode"))
    assert(person.nSources == 5)
  }

  test("shopee schema matches Table III (1 attr, 20 sources)") {
    assert(shopee.attrs == Seq("title"))
    assert(shopee.nSources == 20)
  }

  // ------------------------------------------------------------ integrity --

  test("eids are globally unique") {
    for (ds <- Seq(geo, music, person, shopee)) {
      assert(ds.df.select("eid").distinct().count() == ds.df.count(), ds.name)
    }
  }

  test("sources are within [0, S)") {
    for (ds <- Seq(geo, music, shopee)) {
      val bad = ds.df.filter(col("source") < 0 || col("source") >= ds.nSources)
      assert(bad.count() == 0, ds.name)
    }
  }

  test("tables partition the dataset by source") {
    val total = geo.tables.map(_.count()).sum
    assert(total == geo.df.count())
  }

  test("clusters of size ≤ S have each member in a distinct source") {
    val dup = music.df.groupBy("cid", "source").count()
      .join(music.df.groupBy("cid").count().withColumnRenamed("count", "sz"), Seq("cid"))
      .filter(col("sz") <= music.nSources && col("count") > 1)
    assert(dup.count() == 0)
  }

  test("gtTuples contains exactly the multi-member clusters") {
    val expected = geo.df.groupBy("cid").count().filter(col("count") >= 2).count()
    assert(geo.gtTuples.count() == expected)
  }

  test("generation is deterministic in (scale, seed)") {
    val a = EmDataGen.geo(spark, 0.05, seed = 9L).df.orderBy("eid").collect().toSeq
    val b = EmDataGen.geo(spark, 0.05, seed = 9L).df.orderBy("eid").collect().toSeq
    assert(a == b)
  }

  test("different seeds give different data") {
    val a = EmDataGen.geo(spark, 0.05, seed = 1L).df.orderBy("eid").collect().toSeq
    val b = EmDataGen.geo(spark, 0.05, seed = 2L).df.orderBy("eid").collect().toSeq
    assert(a != b)
  }

  // ------------------------------------------------------- noise character --

  test("duplicate copies differ from the canonical copy but share content") {
    // eid = cid*16 + copy, so eid % 16 < 2 selects copies 0 and 1.
    val byCluster = music.df.filter(col("eid") % 16 < 2).select("cid", "title").collect()
      .groupBy(_.getLong(0)).view.mapValues(_.map(_.getString(1)).toSeq).toMap
    val multi = byCluster.filter(_._2.size == 2)
    assert(multi.nonEmpty)
    // most copy-pairs share at least one title token
    val sharing = multi.values.count { ts =>
      val t0 = ts(0).split(" ").toSet; val t1 = ts(1).split(" ").toSet
      t0.intersect(t1).nonEmpty
    }
    assert(sharing.toDouble / multi.size > 0.8)
  }

  test("music ids are per-entity gibberish (unique within clusters)") {
    val dup = music.df.groupBy("cid", "id").count().filter(col("count") > 1)
    assert(dup.count() == 0)
  }

  test("perturbText is deterministic for a fixed rng seed") {
    val a = EmDataGen.perturbText("hello world example", new scala.util.Random(4L), 0.5, 0.3)
    val b = EmDataGen.perturbText("hello world example", new scala.util.Random(4L), 0.5, 0.3)
    assert(a == b)
  }

  test("perturbText with zero probabilities is the identity") {
    val s = "keep this text intact"
    assert(EmDataGen.perturbText(s, new scala.util.Random(1L), 0.0, 0.0) == s)
  }

  test("perturbText never empties the string") {
    val r = new scala.util.Random(2L)
    (0 until 50).foreach { _ =>
      assert(EmDataGen.perturbText("ab cdef ghij", r, 1.0, 1.0).nonEmpty)
    }
  }

  // ---------------------------------------------------- Table III targets --

  test("geo stats at scale 1.0 land near the paper's Table III row") {
    val s = EmDataGen.stats(EmDataGen.geo(spark, 1.0))
    assert(math.abs(s.entities - 3054).toDouble / 3054 < 0.15, s.toString)
    assert(math.abs(s.tuples - 820).toDouble / 820 < 0.10, s.toString)
    assert(math.abs(s.pairs - 4391).toDouble / 4391 < 0.30, s.toString)
  }

  test("music-20 stats land near the paper's Table III row") {
    val s = EmDataGen.stats(EmDataGen.music(spark, 5000L))
    assert(math.abs(s.entities - 19375).toDouble / 19375 < 0.15, s.toString)
    assert(s.tuples <= 5000 && s.tuples > 4500, s.toString)
    assert(math.abs(s.pairs - 16250).toDouble / 16250 < 0.30, s.toString)
  }

  test("shopee stats land near the paper's Table III row") {
    val s = EmDataGen.stats(EmDataGen.shopee(spark, 1.0))
    assert(math.abs(s.entities - 32563).toDouble / 32563 < 0.15, s.toString)
    assert(math.abs(s.tuples - 10962).toDouble / 10962 < 0.10, s.toString)
    assert(math.abs(s.pairs - 54488).toDouble / 54488 < 0.30, s.toString)
  }

  test("person keeps the paper's in-tuple vs singleton ratio shape") {
    val s = EmDataGen.stats(person)
    // paper: 5M entities, 500k tuples → ~10 entities per tuple overall
    val ratio = s.entities.toDouble / s.tuples
    assert(ratio > 8 && ratio < 12, s.toString)
  }
}
