package repro.graph

import scala.collection.mutable

/** Connected components of a small edge list, by union-find on the driver —
  * the transitivity step of the merging phase (Algorithm 3 line 8 "Merge
  * based on the transitivity") over one merge's mutual pairs, and the
  * dendrogram cut of the MSCD-HAC baseline.
  *
  * Every union links the larger root under the smaller one, so each root is
  * the minimum vertex of its component; `find` compresses paths iteratively,
  * so long chains cannot overflow the stack (Tarjan, JACM 1975).
  */
object ConnectedComponents {

  /** @param edges undirected edges; self-loops and duplicates tolerated
    * @return component label (minimum vertex of its component) for every
    *         vertex that appears in an edge
    */
  def of(edges: Iterable[(Long, Long)]): Map[Long, Long] = {
    val parent = mutable.HashMap.empty[Long, Long]
    def find(x: Long): Long = {
      var root = parent.getOrElseUpdate(x, x)
      while (parent(root) != root) root = parent(root)
      var v = x
      while (v != root) { val next = parent(v); parent(v) = root; v = next }
      root
    }
    edges.foreach { case (a, b) =>
      val (ra, rb) = (find(a), find(b))
      if (ra < rb) parent(rb) = ra else if (rb < ra) parent(ra) = rb
    }
    parent.keys.toVector.map(v => v -> find(v)).toMap
  }
}
