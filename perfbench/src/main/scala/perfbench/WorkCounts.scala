package perfbench

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.{DensityPruning, MultiEmConfig}

/** Work counts of a traced run, computed afterwards from the public columns
  * (`keys`, `members`, `vec`) of frames the run already materialised, so
  * they add nothing to any timed span.
  */
object WorkCounts {

  def apply(r: LayeredResult, attrs: Seq[String], cfg: MultiEmConfig): Map[String, Double] =
    eer(r, attrs, cfg) ++ embed(r) ++ ann(r, cfg) ++ merge(r) ++ prune(r, cfg)

  private def eer(r: LayeredResult, attrs: Seq[String], cfg: MultiEmConfig): Map[String, Double] = {
    val ran = cfg.useEer && attrs.size > 1
    // The same sample AttributeSelection.select draws.
    val sampleRows = if (ran) r.union.sample(withReplacement = false, math.min(1.0, cfg.sampleRatio), cfg.seed).count() else 0L
    Map("eer.attrs_scored" -> (if (ran) attrs.size else 0).toDouble, "eer.sample_rows" -> sampleRows.toDouble)
  }

  private def embed(r: LayeredResult): Map[String, Double] = Map(
    "embed.features" -> r.feats.count().toDouble,
    "embed.distinct_features" -> r.weights.count().toDouble,
    "embed.keys_per_entity" -> r.emb.select(avg(size(col("keys")))).first().getDouble(0),
  )

  /** Candidate pairs the ANN layer scores for one merge, and the most pairs
    * any single blocking key proposes (exact mode: one bucket of all pairs).
    */
  def candidates(a: DataFrame, b: DataFrame, exact: Boolean): (Long, Long) =
    if (exact) { val n = a.count() * b.count(); (n, n) }
    else {
      val ka = a.select(col("id") as "lid", explode(col("keys")) as "key")
      val kb = b.select(col("id") as "rid", explode(col("keys")) as "key")
      val cand = ka.join(kb, Seq("key")).select("lid", "rid").distinct().count()
      val bucket = ka.groupBy("key").count().withColumnRenamed("count", "na")
        .join(kb.groupBy("key").count().withColumnRenamed("count", "nb"), Seq("key"))
        .select(max(col("na") * col("nb"))).first()
      (cand, if (bucket.isNullAt(0)) 0L else bucket.getLong(0))
    }

  private def ann(r: LayeredResult, cfg: MultiEmConfig): Map[String, Double] = {
    val per = r.steps.map(s => (candidates(s.a, s.b, cfg.merge.ann.exact), s.pairs.count()))
    val cand = per.map(_._1._1).sum
    val mutual = per.map(_._2).sum
    Map(
      "ann.candidate_pairs" -> cand.toDouble,
      "ann.mutual_pairs" -> mutual.toDouble,
      "ann.pair_yield" -> (if (cand == 0) 0.0 else mutual.toDouble / cand),
      "ann.max_bucket" -> per.map(_._1._2).maxOption.getOrElse(0L).toDouble,
    )
  }

  private def merge(r: LayeredResult): Map[String, Double] = {
    val itemsIn = r.steps.map(s => s.a.count() + s.b.count()).sum
    val matched = r.steps.map(s => s.pairs.select("lid").distinct().count() + s.pairs.select("rid").distinct().count()).sum
    Map(
      "merge.merges" -> r.steps.size.toDouble,
      "merge.items_in" -> itemsIn.toDouble,
      "merge.matched_items" -> matched.toDouble,
      "merge.passthrough_items" -> (itemsIn - matched).toDouble,
    )
  }

  private def prune(r: LayeredResult, cfg: MultiEmConfig): Map[String, Double] = {
    val multi = r.merged.filter(size(col("members")) >= 2)
    val row = multi.select(count(lit(1)), sum(size(col("members")).cast("long") * size(col("members")))).first()
    val kinds = DensityPruning.classify(r.merged, r.emb, cfg.prune).groupBy("kind").count()
      .collect().map(k => k.getString(0) -> k.getLong(1).toDouble).toMap
    Map(
      "prune.tuples_in" -> row.getLong(0).toDouble,
      "prune.pair_rows" -> (if (row.isNullAt(1)) 0.0 else row.getLong(1).toDouble),
      "prune.core" -> kinds.getOrElse("core", 0.0),
      "prune.reachable" -> kinds.getOrElse("reachable", 0.0),
      "prune.outlier" -> kinds.getOrElse("outlier", 0.0),
      "prune.tuples_out" -> r.tuples.count().toDouble,
    )
  }
}
