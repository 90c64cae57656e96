package repro

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions.udf
import repro.baselines.PairMatcher
import repro.embed.VecOps

/** Straightforward formulations that tests compare the program's batched
  * dataflows against.
  */
object References {

  /** Pairwise matching (Fig. 2a) as the paper runs it: the matcher on every
    * one of the C(S,2) table pairs, outputs unioned — the reference for
    * `Extensions.bySource`.
    */
  def pairwise(tables: Seq[DataFrame], matcher: PairMatcher): DataFrame = {
    val outs = for {
      i <- tables.indices
      j <- tables.indices
      if i < j
    } yield matcher.matchPairs(tables(i), tables(j))
    outs.reduce(_ unionByName _).distinct()
  }

  /** Column-level Euclidean distance between two unit-vector columns. */
  def euclideanDistCol(a: Column, b: Column): Column = euclideanDistUdf(a, b)

  private val euclideanDistUdf =
    udf((a: Seq[Double], b: Seq[Double]) => VecOps.euclideanDist(a, b))
}
