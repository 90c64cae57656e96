package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.embed.VecOps

/** Small helpers shared across suites: hand-built unit-vector frames and
  * tuple frames for exercising the ANN / merge / prune dataflow without the
  * encoder in the loop.
  */
object TestUtil {

  /** L2-normalise a varargs vector. */
  def v(xs: Double*): Array[Double] = VecOps.normalize(xs.toArray)

  /** (id, vec) frame from (id, vector) pairs. */
  def vecDf(spark: SparkSession, rows: Seq[(Long, Array[Double])]): DataFrame = {
    import spark.implicits._
    rows.map { case (id, vec) => (id, vec.toSeq) }.toDF("id", "vec")
  }

  /** (eid, vec) frame (the embedding-output shape). */
  def embDf(spark: SparkSession, rows: Seq[(Long, Array[Double])]): DataFrame =
    vecDf(spark, rows).withColumnRenamed("id", "eid")

  /** Tuples frame (members: Array[Long]) from member lists. */
  def tuplesDf(spark: SparkSession, tuples: Seq[Seq[Long]]): DataFrame = {
    import spark.implicits._
    tuples.map(_.sorted).toDF("members")
  }

  /** Pairs frame (a, b). */
  def pairsDf(spark: SparkSession, pairs: Seq[(Long, Long)]): DataFrame = {
    import spark.implicits._
    pairs.toDF("a", "b")
  }

  /** Collect predicted tuples to a set of member-sets. */
  def tupleSet(df: DataFrame): Set[Set[Long]] =
    df.select("members").collect().map(_.getSeq[Long](0).toSet).toSet

  /** A unit vector at `angle` radians in the plane spanned by dims (0, 1),
    * padded to `dim` — handy for constructing exact cosine distances.
    */
  def planar(angle: Double, dim: Int = 4): Array[Double] = {
    val a = new Array[Double](dim)
    a(0) = math.cos(angle); a(1) = math.sin(angle)
    a
  }

  /** Sets Spark SQL options for the duration of `f`, then restores them. */
  def withConf[T](spark: SparkSession, kv: (String, String)*)(f: => T): T = {
    val saved = kv.map { case (k, _) => k -> spark.conf.getOption(k) }
    kv.foreach { case (k, v) => spark.conf.set(k, v) }
    try f
    finally saved.foreach { case (k, v) => v.fold(spark.conf.unset(k))(spark.conf.set(k, _)) }
  }

  /** Deterministic ScalaCheck sampling (the scalatest↔scalacheck bridge
    * artifact is not on the offline classpath, so suites draw samples
    * directly).
    */
  def samples[T](gen: org.scalacheck.Gen[T], n: Int = 60, seed: Long = 7L): Seq[T] =
    (0 until n).flatMap(i => gen.apply(org.scalacheck.Gen.Parameters.default, org.scalacheck.rng.Seed(seed + i)))
}
