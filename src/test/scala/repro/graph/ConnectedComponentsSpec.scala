package repro.graph

import org.apache.spark.sql.DataFrame
import org.scalacheck.Gen
import repro.{SparkSpec, TestUtil}

class ConnectedComponentsSpec extends SparkSpec {

  private def verts(ids: Seq[Long]): DataFrame = {
    import spark.implicits._
    ids.toDF("id")
  }

  private def edges(es: Seq[(Long, Long)]): DataFrame = {
    import spark.implicits._
    es.toDF("src", "dst")
  }

  private def components(vs: Seq[Long], es: Seq[(Long, Long)]): Map[Long, Long] =
    ConnectedComponents.run(verts(vs), edges(es))
      .collect().map(r => r.getLong(0) -> r.getLong(1)).toMap

  /** Reference union-find for property tests. */
  private def unionFind(vs: Seq[Long], es: Seq[(Long, Long)]): Map[Long, Long] = {
    val parent = scala.collection.mutable.Map(vs.map(v => v -> v): _*)
    def find(x: Long): Long = { if (parent(x) == x) x else { val r = find(parent(x)); parent(x) = r; r } }
    es.foreach { case (a, b) =>
      if (parent.contains(a) && parent.contains(b)) {
        val (ra, rb) = (find(a), find(b)); if (ra != rb) parent(math.max(ra, rb)) = math.min(ra, rb)
      }
    }
    // min label per component
    val groups = vs.groupBy(find)
    groups.flatMap { case (_, members) => members.map(_ -> members.min) }
  }

  test("singleton vertices label themselves") {
    assert(components(Seq(5L, 9L), Seq.empty) == Map(5L -> 5L, 9L -> 9L))
  }

  test("one edge joins two vertices under the min id") {
    assert(components(Seq(3L, 7L), Seq((3L, 7L))) == Map(3L -> 3L, 7L -> 3L))
  }

  test("chain propagates the min label to the far end") {
    val vs = (1L to 6L)
    val es = vs.sliding(2).map(w => (w(0), w(1))).toSeq
    val c = components(vs, es)
    assert(c.values.toSet == Set(1L))
  }

  test("cycle collapses to one component") {
    val c = components(Seq(1L, 2L, 3L, 4L), Seq((1L, 2L), (2L, 3L), (3L, 4L), (4L, 1L)))
    assert(c.values.toSet == Set(1L))
  }

  test("two disjoint components keep separate labels") {
    val c = components(Seq(1L, 2L, 10L, 20L), Seq((1L, 2L), (10L, 20L)))
    assert(c == Map(1L -> 1L, 2L -> 1L, 10L -> 10L, 20L -> 10L))
  }

  test("self-loops and duplicate/reversed edges are harmless") {
    val c = components(Seq(1L, 2L), Seq((1L, 1L), (1L, 2L), (2L, 1L), (1L, 2L)))
    assert(c == Map(1L -> 1L, 2L -> 1L))
  }

  test("star graph resolves in one pass") {
    val c = components(Seq(5L, 1L, 2L, 3L), Seq((5L, 1L), (5L, 2L), (5L, 3L)))
    assert(c.values.toSet == Set(1L))
  }

  test("labels equal min vertex id per component") {
    val c = components(Seq(10L, 4L, 7L), Seq((10L, 4L), (4L, 7L)))
    assert(c.values.toSet == Set(4L))
  }

  test("fails loudly when labels still change after maxIter") {
    // The min label needs 9 rounds to reach the far end of a 10-vertex path.
    val vs = 1L to 10L
    val es = vs.sliding(2).map(w => (w(0), w(1))).toSeq
    val e = intercept[IllegalStateException](ConnectedComponents.run(verts(vs), edges(es), maxIter = 3))
    assert(e.getMessage.contains("3 iterations"))
    assert(ConnectedComponents.run(verts(vs), edges(es), maxIter = 10)
      .collect().map(_.getLong(1)).toSet == Set(1L))
  }

  test("property: matches union-find on random graphs") {
    val caseGen = for {
      n <- Gen.choose(2, 14)
      nEdges <- Gen.choose(0, 18)
      es <- Gen.listOfN(nEdges, Gen.zip(Gen.choose(0L, n - 1L), Gen.choose(0L, n - 1L)))
    } yield (0L until n.toLong, es)
    TestUtil.samples(caseGen, n = 12).foreach { case (vs, es) =>
      assert(components(vs, es) == unionFind(vs, es), s"graph vs=$vs es=$es")
    }
  }
}
