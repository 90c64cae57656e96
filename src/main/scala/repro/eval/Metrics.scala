package repro.eval

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Precision / recall / F1 triple (percentages, paper-style). */
case class Scores(p: Double, r: Double, f1: Double) {
  override def toString: String = f"P=$p%.1f R=$r%.1f F1=$f1%.1f"
}

/** Evaluation exactly per §IV-A:
  *
  *  - tuple-level P/R/F1: a predicted tuple counts only on *exact* set
  *    equality with a ground-truth tuple;
  *  - pair-F1: tuples expanded to unordered pairs (Example 2);
  *  - Algorithm 5: extension converting two-table EM pair output to tuples —
  *    tuple(e) = {e} ∪ direct-matches(e), deliberately not transitive.
  */
object Metrics {

  private def f1(p: Double, r: Double): Double = if (p + r <= 0) 0.0 else 2 * p * r / (p + r)

  private def keyed(tuples: DataFrame): DataFrame =
    tuples
      .select(concat_ws(",", transform(sort_array(col("members")), _.cast("string"))) as "key")
      .distinct()

  /** P/R/F1 from two keyed sets in a single Spark action (full outer join +
    * one aggregate) — the tuning grid calls this often.
    */
  private def setScores(pred: DataFrame, gt: DataFrame, on: Seq[String]): Scores = {
    val row = pred.withColumn("__p", lit(1))
      .join(gt.withColumn("__g", lit(1)), on, "full_outer")
      .agg(
        count(col("__p")) as "np",
        count(col("__g")) as "ng",
        count(when(col("__p").isNotNull && col("__g").isNotNull, 1)) as "hit")
      .collect()(0)
    val (np, ng, hit) = (row.getLong(0), row.getLong(1), row.getLong(2))
    val p = if (np == 0) 0.0 else 100.0 * hit / np
    val r = if (ng == 0) 0.0 else 100.0 * hit / ng
    Scores(p, r, f1(p, r))
  }

  /** Exact-tuple precision/recall/F1 of predicted vs ground-truth tuples
    * (both as (members: Array[Long]) frames).
    */
  def tupleScores(pred: DataFrame, gt: DataFrame): Scores =
    setScores(keyed(pred), keyed(gt), Seq("key"))

  /** Expand tuples to unordered entity pairs (a < b): each sorted member
    * list yields every later member paired with each earlier one, in place.
    */
  def pairsOf(tuples: DataFrame): DataFrame =
    tuples
      .select(sort_array(col("members")) as "m")
      .select(explode(flatten(transform(col("m"), (a, i) =>
        transform(slice(col("m"), i + 2, size(col("m"))), b => struct(a as "a", b as "b"))))) as "p")
      .select("p.a", "p.b")
      .filter(col("a") < col("b"))
      .distinct()

  /** pair-F1 (§IV-A, Example 2): P/R/F1 over the expanded pair sets. */
  def pairScores(pred: DataFrame, gt: DataFrame): Scores =
    setScores(pairsOf(pred), pairsOf(gt), Seq("a", "b"))

  /** Algorithm 5 — pairs → tuples: for every entity e appearing in the pair
    * set, emit tuple {e} ∪ matches(e); deduplicate identical tuples. The
    * non-transitive construction is what surfaces transitive conflicts in
    * the two-table baselines.
    *
    * @param pairs matched pairs as (a, b) entity ids
    * @return tuples as (members: Array[Long]) rows, |members| ≥ 2
    */
  def pairsToTuples(pairs: DataFrame): DataFrame = {
    val sym = pairs.select(col("a"), col("b"))
      .unionByName(pairs.select(col("b") as "a", col("a") as "b"))
      .filter(col("a") =!= col("b"))
      .distinct()
    sym.groupBy(col("a") as "e")
      .agg(collect_set(col("b")) as "matches")
      .select(sort_array(array_union(array(col("e")), col("matches"))) as "members")
      .distinct()
      .filter(size(col("members")) >= 2)
  }
}
