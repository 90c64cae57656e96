package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.ann.{AnnConfig, MutualTopK}
import repro.embed.VecOps

/** A two-table matcher: the unit of the pairwise / chain extensions.
  * Tables carry (id: Long, vec: Array[Double], text: String). A matcher's
  * candidates are the mutual top-1 pairs with distance ≤ `maxDist`; its rule
  * (`accept`) keeps the candidates it matches.
  */
trait PairMatcher {
  def name: String
  def maxDist: Double
  def ann: AnnConfig

  /** The matcher's rule: the accepted rows of `cand` (a, b, dist), where `a`
    * is an id of `left` and `b` an id of `right`. `cand` is materialised, so
    * a rule may read it more than once.
    */
  def accept(cand: DataFrame, left: DataFrame, right: DataFrame): DataFrame

  /** Matched pairs (a, b), a from `left` and b from `right`. */
  def matchPairs(left: DataFrame, right: DataFrame): DataFrame =
    matchMutual(MutualTopK.mutualPairs(left, right, 1, maxDist, ann), left, right)

  /** The accepted pairs (a, b) among this matcher's candidates, given as
    * mutual top-1 pairs (lid, rid, dist) with lid from `left`, rid from
    * `right`.
    */
  private[baselines] def matchMutual(mutual: DataFrame, left: DataFrame, right: DataFrame): DataFrame =
    accept(mutual.select(col("lid") as "a", col("rid") as "b", col("dist")).localCheckpoint(), left, right)
      .select("a", "b")
}

/** Plain unsupervised embedding-threshold matcher (mutual top-1, dist ≤ m) —
  * the "two-table EM" kernel the paper's complexity analysis assumes.
  */
case class EmbeddingThresholdMatcher(m: Double, ann: AnnConfig = AnnConfig(exact = true))
    extends PairMatcher {
  val name = "EmbedThreshold"
  def maxDist: Double = m
  // The candidates are already capped at m.
  def accept(cand: DataFrame, left: DataFrame, right: DataFrame): DataFrame = cand
}

/** AutoFuzzyJoin proxy: unsupervised, precision-first. Candidates are mutual
  * top-1 pairs under a loose cap; the match threshold is auto-programmed as
  * the midpoint of the largest gap in the sorted candidate-distance
  * distribution (a distribution-gap heuristic standing in for AutoFJ's
  * precision-target threshold search). See DESIGN.md substitutions.
  */
case class AutoFJLite(maxDist: Double = 0.9, ann: AnnConfig = AnnConfig(exact = true))
    extends PairMatcher {
  val name = "AutoFJ"
  def accept(cand: DataFrame, left: DataFrame, right: DataFrame): DataFrame = {
    val threshold = AutoFJLite.gapThreshold(cand.select("dist").collect().map(_.getDouble(0)), maxDist)
    cand.filter(col("dist") <= threshold)
  }
}

object AutoFJLite {

  /** The auto-programmed threshold: the midpoint of the largest gap between
    * consecutive sorted candidate distances, or `maxDist / 2` with under 3
    * candidates.
    */
  def gapThreshold(dists: Seq[Double], maxDist: Double): Double = {
    val sorted = dists.sorted
    if (sorted.length < 3) maxDist / 2
    else sorted.sliding(2).map(w => (w(1) - w(0), (w(0) + w(1)) / 2)).maxBy(_._1)._2
  }
}

/** Supervised threshold matcher — the offline stand-in for fine-tuned-PLM
  * matchers (DittoLite) and prompt-tuned matchers (PromptEMLite). Candidates
  * are the mutual top-1 pairs within cosine distance 1.2; the match score is
  * `ThresholdLearner.scored` with `feature` "cos" or "cos+jac", and
  * `threshold` is learned from the 5 % labeled split by `ThresholdLearner`.
  */
case class SupervisedMatcher(
    name: String,
    threshold: Double,
    feature: String = "cos",
    ann: AnnConfig = AnnConfig(exact = true),
) extends PairMatcher {
  val maxDist = 1.2
  def accept(cand: DataFrame, left: DataFrame, right: DataFrame): DataFrame =
    ThresholdLearner.scored(cand, left, right, feature).filter(col("score") <= threshold)
}

/** Learns the score threshold that maximises F1 on a labeled pair sample —
  * the training loop of the supervised proxies.
  */
object ThresholdLearner {

  /** Token-Jaccard distance between two strings. */
  def jaccardDist(a: String, b: String): Double = {
    val ta = Option(a).getOrElse("").toLowerCase.split("[^\\p{L}\\p{N}]+").filter(_.nonEmpty).toSet
    val tb = Option(b).getOrElse("").toLowerCase.split("[^\\p{L}\\p{N}]+").filter(_.nonEmpty).toSet
    if (ta.isEmpty && tb.isEmpty) 0.0
    else 1.0 - ta.intersect(tb).size.toDouble / ta.union(tb).size
  }

  private val jaccardUdf = udf((a: String, b: String) => jaccardDist(a, b))

  /** The supervised match score of candidate pairs (a, b, dist): the cosine
    * distance ("cos"), or PromptEMLite's blend 0.5·dist + 0.5·jaccardDist of
    * the texts of a in `left` and b in `right` ("cos+jac").
    */
  def scored(cand: DataFrame, left: DataFrame, right: DataFrame, feature: String): DataFrame =
    if (feature == "cos") cand.withColumn("score", col("dist"))
    else {
      cand
        .join(left.select(col("id") as "a", col("text") as "ta"), Seq("a"))
        .join(right.select(col("id") as "b", col("text") as "tb"), Seq("b"))
        .withColumn("score", col("dist") * 0.5 + jaccardUdf(col("ta"), col("tb")) * 0.5)
    }

  /** Best F1 threshold over (score, isMatch) examples: scans every candidate
    * cut between consecutive sorted scores.
    */
  def bestThreshold(examples: Seq[(Double, Boolean)]): Double = {
    if (examples.isEmpty) return 0.5
    val sorted = examples.sortBy(_._1)
    val nPos = sorted.count(_._2).toDouble
    if (nPos == 0) return sorted.head._1 / 2
    var tp = 0.0; var fp = 0.0
    var best = (0.0, sorted.head._1 / 2)
    sorted.zipWithIndex.foreach { case ((s, lbl), i) =>
      if (lbl) tp += 1 else fp += 1
      val p = tp / (tp + fp); val r = tp / nPos
      val f1 = if (p + r <= 0) 0.0 else 2 * p * r / (p + r)
      if (f1 > best._1) {
        val nxt = if (i + 1 < sorted.length) sorted(i + 1)._1 else s + 1e-6
        best = (f1, (s + nxt) / 2)
      }
    }
    best._2
  }

  /** Build a labeled training sample: `ratio` of ground-truth pairs as
    * positives plus `negPerPos` random non-matching pairs per positive,
    * scored with the given feature over (id, vec, text) items.
    */
  def trainExamples(
      items: DataFrame,
      gtPairs: DataFrame,
      feature: String,
      ratio: Double = 0.05,
      negPerPos: Int = 10,
      seed: Long = 13L,
  ): Seq[(Double, Boolean)] = {
    val pos = gtPairs.sample(withReplacement = false, math.min(1.0, ratio), seed).localCheckpoint()
    val nPos = pos.count()
    if (nPos == 0) return Seq.empty
    val ids = items.select(col("id")).orderBy(rand(seed)).limit((nPos * negPerPos * 2).toInt)
      .withColumn("rn", monotonically_increasing_id())
    val half = ids.count() / 2
    val neg = ids.filter(col("rn") < half).select(col("id") as "a", col("rn") as "j")
      .join(ids.filter(col("rn") >= half).select(col("id") as "b", (col("rn") - half) as "j"), Seq("j"))
      .filter(col("a") =!= col("b"))
      .select("a", "b")
    val score = scoreOf(items, feature)(_, _)
    val posScored = score(pos, true)
    val negScored = score(neg, false)
    posScored ++ negScored
  }

  private def scoreOf(items: DataFrame, feature: String)(pairs: DataFrame, label: Boolean): Seq[(Double, Boolean)] = {
    val withDist = pairs
      .join(items.select(col("id") as "a", col("vec") as "va"), Seq("a"))
      .join(items.select(col("id") as "b", col("vec") as "vb"), Seq("b"))
      .withColumn("dist", VecOps.cosineDistCol(col("va"), col("vb")))
    scored(withDist, items, items, feature).select("score").collect().map(row => (row.getDouble(0), label)).toSeq
  }
}
