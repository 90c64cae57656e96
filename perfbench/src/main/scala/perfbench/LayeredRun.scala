package perfbench

import java.util.concurrent.Executors
import scala.collection.mutable.ArrayBuffer
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.ann.MutualTopK
import repro.core._
import repro.embed.Embedder

/** One two-table merge of the hierarchy, kept for counting after the run. */
final case class MergeStep(level: Int, a: DataFrame, b: DataFrame, pairs: DataFrame)

/** Frames a traced run leaves behind, all materialised. */
final case class LayeredResult(
    tuples: DataFrame,
    union: DataFrame,
    feats: DataFrame,
    weights: DataFrame,
    emb: DataFrame,
    merged: DataFrame,
    steps: Seq[MergeStep],
)

/** `MultiEm.run`, driven layer by layer through the modules' public calls so
  * each call gets its own span. It materialises with `localCheckpoint` where
  * the pipeline does, and additionally after each call it times on its own:
  * the exploded features, the vectors and keys before their join, and each
  * merge's mutual pairs (computed once more, from the same inputs, because
  * `twoTableMerge` computes its pairs internally).
  */
object LayeredRun {

  def run(tables: Seq[DataFrame], attrs: Seq[String], cfg: MultiEmConfig, tr: Tracer, root: Int): LayeredResult = {
    val union = tables.reduce(_ unionByName _)

    val sel = tr.span("eer.select", root) { _ =>
      if (cfg.useEer && attrs.size > 1)
        AttributeSelection.select(union, "eid", attrs, cfg.sampleRatio, cfg.gamma, cfg.embed, cfg.seed)
      else AttrSelection(attrs.map(_ -> 1.0).toMap, attrs)
    }

    // Representation, as MultiEm.representWithKeys builds it.
    val ser = Embedder.serialize(union, sel.selected)
    val feats = tr.span("embed.explode", root) { _ =>
      Embedder.explodeFeatures(ser, "eid", "text", cfg.embed).localCheckpoint()
    }
    val weights = tr.span("embed.weights", root) { _ =>
      Embedder.featureWeights(feats, "eid", union.count()).localCheckpoint()
    }
    val vecs = tr.span("embed.vectors", root) { _ =>
      Embedder.embedWithWeights(ser, "eid", "text", weights, cfg.embed).localCheckpoint()
    }
    val ann = cfg.merge.ann
    val keys = tr.span("embed.keys", root) { _ =>
      (if (ann.exact) vecs.select(col("eid"), array().cast("array<long>") as "keys")
       else Embedder.blockingKeys(ser, "eid", "text", weights, cfg.embed, ann.topB, ann.rareDf)).localCheckpoint()
    }
    val emb = tr.span("embed.join", root) { _ => vecs.join(keys, Seq("eid")).localCheckpoint() }

    // Merging, on Merging.hierarchical's schedule.
    val items = tr.span("merge.init", root) { _ =>
      tables.map(t => Merging.initItems(t.select(col("eid")).join(emb, Seq("eid"))).localCheckpoint())
    }
    val steps = ArrayBuffer.empty[MergeStep]
    var cur = items.toVector
    var level = 0
    while (cur.size > 1) {
      level += 1
      val lv = level
      cur = tr.span(s"merge.level$lv", root) { levelSpan =>
        def merge(x: DataFrame, y: DataFrame): DataFrame = tr.span("merge.pair", levelSpan) { pair =>
          val pairs = tr.span("ann.mutual_pairs", pair) { _ =>
            MutualTopK.mutualPairs(x.select("id", "vec", "keys"), y.select("id", "vec", "keys"),
              cfg.merge.k, cfg.merge.m, ann).localCheckpoint()
          }
          steps.synchronized { steps += MergeStep(lv, x, y, pairs) }
          tr.span("merge.two_table", pair) { _ => Merging.twoTableMerge(x, y, cfg.merge).localCheckpoint() }
        }
        // Pairs of tables merge; an odd table out passes to the next level.
        def step(g: Vector[DataFrame]): DataFrame = if (g.size == 2) merge(g(0), g(1)) else g(0)
        val groups = cur.grouped(2).toVector
        if (!cfg.merge.parallel) groups.map(step)
        else {
          val pool = Executors.newFixedThreadPool(math.max(1, cfg.merge.parallelism))
          implicit val ec: ExecutionContext = ExecutionContext.fromExecutorService(pool)
          try Await.result(Future.sequence(groups.map(g => Future(step(g)))), Duration.Inf)
          finally pool.shutdown()
        }
      }
    }
    val merged = tr.span("merge.final", root) { _ => cur.head.localCheckpoint() }

    val tuples = tr.span("prune.prune", root) { _ =>
      (if (cfg.usePruning) DensityPruning.prune(merged, emb, cfg.prune)
       else merged.filter(size(col("members")) >= 2).select("members")).localCheckpoint()
    }
    LayeredResult(tuples, union, feats, weights, emb, merged, steps.toList.sortBy(_.level))
  }
}
