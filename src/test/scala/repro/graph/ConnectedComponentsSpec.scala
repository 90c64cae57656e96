package repro.graph

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil

class ConnectedComponentsSpec extends AnyFunSuite {

  import ConnectedComponents.of

  /** Reference: breadth-first search from each unlabelled vertex of the
    * symmetric adjacency, labelling the whole component with its minimum.
    */
  private def bfs(es: Seq[(Long, Long)]): Map[Long, Long] = {
    val adj = (es ++ es.map(_.swap)).groupMap(_._1)(_._2)
    adj.keys.foldLeft(Map.empty[Long, Long]) { (labels, start) =>
      if (labels.contains(start)) labels
      else {
        var seen = Set(start)
        var frontier = List(start)
        while (frontier.nonEmpty) {
          val next = frontier.flatMap(adj).filterNot(seen)
          seen ++= next
          frontier = next.distinct
        }
        labels ++ seen.map(_ -> seen.min)
      }
    }
  }

  test("singleton vertices label themselves") {
    assert(of(Seq.empty) == Map.empty)
    assert(of(Seq((5L, 5L), (9L, 9L))) == Map(5L -> 5L, 9L -> 9L))
  }

  test("one edge joins two vertices under the min id") {
    assert(of(Seq((7L, 3L))) == Map(3L -> 3L, 7L -> 3L))
  }

  test("chain propagates the min label to the far end") {
    val es = (1L to 6L).sliding(2).map(w => (w(0), w(1))).toSeq
    assert(of(es) == (1L to 6L).map(_ -> 1L).toMap)
  }

  test("cycle collapses to one component") {
    val c = of(Seq((1L, 2L), (2L, 3L), (3L, 4L), (4L, 1L)))
    assert(c == (1L to 4L).map(_ -> 1L).toMap)
  }

  test("two disjoint components keep separate labels") {
    val c = of(Seq((1L, 2L), (10L, 20L)))
    assert(c == Map(1L -> 1L, 2L -> 1L, 10L -> 10L, 20L -> 10L))
  }

  test("self-loops and duplicate/reversed edges are harmless") {
    val c = of(Seq((1L, 1L), (1L, 2L), (2L, 1L), (1L, 2L)))
    assert(c == Map(1L -> 1L, 2L -> 1L))
  }

  test("star graph resolves in one pass") {
    val c = of(Seq((5L, 1L), (5L, 2L), (5L, 3L)))
    assert(c == Map(1L -> 1L, 2L -> 1L, 3L -> 1L, 5L -> 1L))
  }

  test("labels equal min vertex id per component") {
    val c = of(Seq((10L, 4L), (4L, 7L)))
    assert(c == Map(4L -> 4L, 7L -> 4L, 10L -> 4L))
  }

  test("a 25 000-vertex path given in descending order gets one label without deep recursion") {
    // MscdHac.MaxEntities long. Each union links the new, smaller vertex
    // above the chain, so the far end ends up 24 999 links below the root;
    // the repeated first edge then makes find walk the whole chain, which a
    // recursive find cannot do on a 256 KiB stack.
    val n = 25000L
    val es = (n to 2L by -1L).map(v => (v, v - 1)) :+ (n, n - 1)
    var c = Map.empty[Long, Long]
    val t = new Thread(null, () => c = of(es), "small-stack", 256L * 1024)
    t.start()
    t.join()
    assert(c.size == n)
    assert(c.values.toSet == Set(1L))
  }

  test("property: matches breadth-first search on random graphs") {
    val caseGen = for {
      n <- Gen.choose(2, 14)
      nEdges <- Gen.choose(0, 18)
      es <- Gen.listOfN(nEdges, Gen.zip(Gen.choose(0L, n - 1L), Gen.choose(0L, n - 1L)))
    } yield es
    TestUtil.samples(caseGen, n = 50).foreach { es =>
      assert(of(es) == bfs(es), s"edges $es")
    }
  }
}
