package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.ann.AnnConfig
import repro.embed.{EmbedConfig, Embedder}

/** Full MultiEM configuration (defaults follow §IV-A where applicable:
  * k = 1, MinPts = 2; m/ε/γ re-centred grids per DESIGN.md).
  */
case class MultiEmConfig(
    embed: EmbedConfig = EmbedConfig(),
    useEer: Boolean = true,
    gamma: Double = 0.5,
    sampleRatio: Double = 0.2,
    merge: MergeConfig = MergeConfig(),
    usePruning: Boolean = true,
    prune: PruneConfig = PruneConfig(),
    seed: Long = 7L,
)

/** Pipeline output.
  *
  * @param tuples        predicted matched tuples: (members: Array[Long])
  * @param selectedAttrs attributes EER kept (all attrs when EER disabled)
  * @param attrScores    Algorithm 1 significance scores (empty w/o EER)
  * @param phaseSeconds  wall-clock per phase: selection, representation,
  *                      merging, pruning (feeds the Fig. 5-style breakdown)
  */
case class MultiEmResult(
    tuples: DataFrame,
    selectedAttrs: Seq[String],
    attrScores: Map[String, Double],
    phaseSeconds: Map[String, Double],
    merged: DataFrame,
) {
  /** Unpruned prediction — the "MultiEM w/o DP" ablation reuses the same
    * run's merged table (pruning is a pure post-step).
    */
  def tuplesWithoutPruning: DataFrame =
    merged.filter(org.apache.spark.sql.functions.size(
      org.apache.spark.sql.functions.col("members")) >= 2).select("members")
}

/** The MultiEM pipeline (paper §III): enhanced entity representation →
  * table-wise hierarchical merging → density-based pruning.
  */
object MultiEm {

  private def timed[T](f: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = f
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** Representation phase as a reusable unit: serialize the selected
    * attributes, explode their features once, and derive from that one
    * frame the corpus weight table, the embeddings and (for approximate
    * search) the blocking keys. Fails on duplicate eids, which would
    * otherwise multiply rows in every later join on eid.
    *
    * @return (eid, vec, keys), one row per eid; equal to composing
    *         `Embedder.explodeFeatures` → `featureWeights` →
    *         `embedWithWeights` / `blockingKeys` over the same texts
    */
  def representWithKeys(
      union: DataFrame,
      attrs: Seq[String],
      embedCfg: EmbedConfig,
      ann: AnnConfig,
  ): DataFrame = {
    val ser = Embedder.serialize(union, attrs)
    val counts = union.agg(count(lit(1)), countDistinct(col("eid"))).head()
    val (rows, eids) = (counts.getLong(0), counts.getLong(1))
    require(rows == eids,
      s"duplicate eids: ${rows - eids} of $rows rows repeat an eid; eids must be globally unique across tables")
    // A feature-less eid keeps one null-feature row, which the weights skip.
    // The union has a partition per input partition of every table; fewer
    // partitions mean fewer tasks in every stage that reads the features.
    val feats = Embedder.explodeFeaturesOuter(ser, "eid", "text")
      .coalesce(union.sparkSession.sparkContext.defaultParallelism).localCheckpoint()
    // Read only by the one job that materialises the embeddings (the vector
    // and key kernels share its exchange).
    val weights = Embedder.featureWeights(feats.filter(col("feature").isNotNull), "eid", rows)
    val e = Embedder.vectorsOf(feats, "eid", weights, embedCfg)
    if (ann.exact) e.withColumn("keys", array().cast("array<long>"))
    else e.join(Embedder.keysOf(feats, "eid", weights, ann.topB, ann.rareDf), Seq("eid"))
  }

  /** Run MultiEM over the S source tables of a dataset.
    *
    * @param tables per-source DataFrames, each with (eid, attrs…); eids must
    *               be globally unique across tables
    * @param attrs  attribute columns shared by all tables
    */
  def run(tables: Seq[DataFrame], attrs: Seq[String], cfg: MultiEmConfig = MultiEmConfig()): MultiEmResult = {
    require(tables.nonEmpty, "need at least one table")
    val union = tables.reduce(_ unionByName _)

    // Phase 1a — automated attribute selection (Algorithm 1).
    val (sel, tSel) = timed {
      if (cfg.useEer)
        AttributeSelection.select(union, "eid", attrs, cfg.sampleRatio, cfg.gamma, cfg.embed, cfg.seed)
      else AttrSelection(attrs.map(_ -> 1.0).toMap, attrs)
    }

    // Phase 1b — representation: one corpus-wide weight table, one embedding
    // (and its blocking keys, for approximate search) per entity over the
    // selected attributes.
    val (emb, tRep) = timed {
      representWithKeys(union, sel.selected, cfg.embed, cfg.merge.ann).localCheckpoint()
    }

    // Phase 2 — table-wise hierarchical merging (Algorithms 2 + 3).
    val (merged, tMer) = timed { Merging.hierarchical(tables, emb, cfg.merge) }

    // Phase 3 — density-based pruning (Algorithm 4), or raw merged tuples.
    val (tuples, tPru) = timed {
      val out =
        if (cfg.usePruning) DensityPruning.prune(merged, emb, cfg.prune)
        else merged.filter(size(col("members")) >= 2).select("members")
      out.localCheckpoint()
    }

    MultiEmResult(
      tuples,
      sel.selected,
      sel.scores,
      Map("selection" -> tSel, "representation" -> tRep, "merging" -> tMer, "pruning" -> tPru),
      merged,
    )
  }
}
