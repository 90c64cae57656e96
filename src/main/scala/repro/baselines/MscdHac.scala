package repro.baselines

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import repro.embed.VecOps
import repro.graph.ConnectedComponents
import scala.collection.mutable.ArrayBuffer

/** MSCD-HAC proxy: average-linkage hierarchical agglomerative clustering
  * with a distance-threshold cut, implemented driver-locally (like the
  * original single-node method) via the nearest-neighbor-chain algorithm —
  * O(n²) time and memory, which is exactly the scaling wall the paper
  * reports for MSCD-HAC ("\" on every dataset beyond Geo / Music-20).
  */
object MscdHac {

  /** Maximum entity count we attempt; beyond this the harness reports "\"
    * like the paper's 7-day-timeout rows.
    */
  val MaxEntities = 25000

  /** Average-linkage HAC over unit vectors, cut at `threshold` (Euclidean).
    *
    * Runs NN-chain to the full dendrogram (average linkage is reducible, so
    * RNN merges yield the standard dendrogram), then unions every merge
    * whose linkage distance ≤ threshold.
    *
    * @return cluster label per input index
    */
  def cluster(vecs: Array[Array[Double]], threshold: Double): Array[Int] = {
    val n = vecs.length
    if (n == 0) return Array.empty
    if (n == 1) return Array(0)

    // Full distance matrix (Float to halve memory); parallel row build
    // (java parallel streams — scala-parallel-collections is not on the
    // offline classpath).
    val dist = new Array[Float](n * n)
    java.util.stream.IntStream.range(0, n).parallel().forEach { i =>
      var j = 0
      while (j < n) {
        dist(i * n + j) = VecOps.euclideanDist(vecs(i), vecs(j)).toFloat
        j += 1
      }
    }

    val active = Array.fill(n)(true)
    val csize = Array.fill(n)(1)
    val merges = ArrayBuffer.empty[(Int, Int, Double)] // (kept, absorbed, linkage)
    val chain = new ArrayBuffer[Int]
    var remaining = n

    def nearest(a: Int, prefer: Int): Int = {
      var best = -1
      var bestD = Float.MaxValue
      var j = 0
      while (j < n) {
        if (j != a && active(j)) {
          val d = dist(a * n + j)
          // tie-break toward the chain predecessor to guarantee termination
          if (d < bestD || (d == bestD && j == prefer)) { bestD = d; best = j }
        }
        j += 1
      }
      best
    }

    while (remaining > 1) {
      if (chain.isEmpty) {
        var s = 0; while (!active(s)) s += 1
        chain += s
      }
      var done = false
      while (!done) {
        val a = chain.last
        val prev = if (chain.size >= 2) chain(chain.size - 2) else -1
        val b = nearest(a, prev)
        if (b == prev) {
          // reciprocal nearest neighbors — merge a and b (keep min index)
          val (keep, gone) = if (a < b) (a, b) else (b, a)
          merges += ((keep, gone, dist(a * n + b).toDouble))
          val sa = csize(keep); val sb = csize(gone)
          var k = 0
          while (k < n) {
            if (active(k) && k != keep && k != gone) {
              val d = ((sa * dist(keep * n + k) + sb * dist(gone * n + k)) / (sa + sb)).toFloat
              dist(keep * n + k) = d; dist(k * n + keep) = d
            }
            k += 1
          }
          csize(keep) = sa + sb
          active(gone) = false
          remaining -= 1
          chain.remove(chain.size - 1); chain.remove(chain.size - 1)
          done = true
        } else {
          chain += b
        }
      }
    }

    // Cut the dendrogram: union merges at linkage ≤ threshold.
    val comp = ConnectedComponents.of(merges.collect { case (a, b, d) if d <= threshold => (a.toLong, b.toLong) })
    Array.tabulate(n)(i => comp.getOrElse(i.toLong, i.toLong).toInt)
  }

  /** Run over an embedded entity frame (id, vec); returns predicted tuples
    * as (members: Array[Long]).
    */
  def run(spark: SparkSession, items: DataFrame, threshold: Double): DataFrame = {
    val rows = items.select("id", "vec").collect()
    val ids = rows.map(_.getLong(0))
    val vecs = rows.map(_.getSeq[Double](1).toArray)
    require(ids.length <= MaxEntities, s"MscdHac gated at $MaxEntities entities (got ${ids.length})")
    val labels = cluster(vecs, threshold)
    import spark.implicits._
    labels.zip(ids).toSeq.toDF("label", "eid")
      .groupBy("label")
      .agg(sort_array(collect_list("eid")) as "members")
      .filter(size(col("members")) >= 2)
      .select("members")
  }
}
