package repro.embed

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions.udf

/** Dense-vector helpers shared by the encoder, the ANN layer, merging and
  * pruning. Vectors are plain `Array[Double]` columns, always L2-normalised
  * by the encoder, so cosine similarity is a dot product and Euclidean
  * distance is `sqrt(2 - 2·dot)`.
  */
object VecOps {

  /** Dot product of two equal-length vectors, summed in index order.
    *
    * Spark hands Scala UDFs their array arguments as `List`s, where `a(i)`
    * costs O(i); walking both with iterators keeps the dot product O(n).
    */
  def dot(a: Seq[Double], b: Seq[Double]): Double = {
    val ia = a.iterator; val ib = b.iterator
    var s = 0.0
    while (ia.hasNext && ib.hasNext) s += ia.next() * ib.next()
    require(!ia.hasNext && !ib.hasNext, s"dot of vectors of unequal length ${a.length} and ${b.length}")
    s
  }

  /** `dot` over arrays: the same index-order sum, so the same bits. */
  def dot(a: Array[Double], b: Array[Double]): Double = {
    require(a.length == b.length, s"dot of vectors of unequal length ${a.length} and ${b.length}")
    var s = 0.0; var i = 0
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }

  /** Cosine distance (1 - cos) for unit vectors; clamped to [0, 2]. */
  def cosineDist(a: Seq[Double], b: Seq[Double]): Double = distOfDot(dot(a, b))

  /** `cosineDist` over arrays. */
  def cosineDist(a: Array[Double], b: Array[Double]): Double = distOfDot(dot(a, b))

  private def distOfDot(d: Double): Double = math.min(2.0, math.max(0.0, 1.0 - d))

  /** Euclidean distance between unit vectors, via the dot product. */
  def euclideanDist(a: Seq[Double], b: Seq[Double]): Double =
    math.sqrt(math.max(0.0, 2.0 - 2.0 * dot(a, b)))

  /** L2-normalise in place-ish (returns a new array; zero vectors pass through). */
  def normalize(v: Array[Double]): Array[Double] = {
    val n = math.sqrt(v.map(x => x * x).sum)
    if (n <= 1e-12) v else v.map(_ / n)
  }

  /** L2-renormalised element-wise mean — the centroid of a merged item. */
  def meanNormalized(vs: Seq[Seq[Double]]): Array[Double] = {
    require(vs.nonEmpty, "meanNormalized of empty sequence")
    val dim = vs.head.length
    val acc = new Array[Double](dim)
    vs.foreach { v =>
      require(v.length == dim, s"meanNormalized of vectors of unequal length $dim and ${v.length}")
      val it = v.iterator; var i = 0
      while (i < dim) { acc(i) += it.next(); i += 1 }
    }
    var i = 0
    while (i < dim) { acc(i) /= vs.size; i += 1 }
    normalize(acc)
  }

  /** Column-level cosine distance between two vector columns. */
  def cosineDistCol(a: Column, b: Column): Column = cosineDistUdf(a, b)

  /** Column-level centroid over `collect_list`-ed vectors. */
  def meanNormalizedCol(vs: Column): Column = meanUdf(vs)

  private val cosineDistUdf =
    udf((a: Seq[Double], b: Seq[Double]) => cosineDist(a, b))
  private val meanUdf =
    udf((vs: Seq[Seq[Double]]) => meanNormalized(vs))
}
