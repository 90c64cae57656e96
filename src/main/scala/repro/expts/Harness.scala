package repro.expts

import java.lang.management.{ManagementFactory, MemoryType}
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.ann.AnnConfig
import repro.baselines._
import repro.core._
import repro.data.EmDataset
import repro.embed.{EmbedConfig, Embedder}
import repro.eval.{Metrics, Scores}

/** Outcome of one (method, dataset) cell across Tables IV/V/VI.
  *
  * @param note "" = ran; "\\" = gated out (paper's 7-day-timeout symbol);
  *             "-" = gated out (paper's out-of-memory symbol)
  */
case class RunOutcome(
    method: String,
    dataset: String,
    tuple: Option[Scores],
    pair: Option[Scores],
    seconds: Option[Double],
    peakGB: Option[Double],
    note: String = "",
) {
  def cellF1: String = tuple.map(s => f"${s.f1}%.1f").getOrElse(note)
  def cellPairF1: String = pair.map(s => f"${s.f1}%.1f").getOrElse(note)
  def cellTime: String = seconds.map(Harness.fmtTime).getOrElse(note)
  def cellMem: String = peakGB.map(g => f"$g%.1fG").getOrElse(note)
}

/** Per-dataset tuned hyperparameters (the paper grid-searches m/ε/γ too),
  * with the attributes EER selected for the tuning runs.
  */
case class Tuned(m: Double, eps: Double, attrs: Seq[String])

/** Everything a dataset's baseline runs share: embedded items and splits. */
case class BaselinePrep(
    items: DataFrame,          // (id, source, vec, text)
    tables: Seq[DataFrame],    // per-source (id, vec, text)
    gt: DataFrame,             // ground-truth tuples (members)
    gtPairs: DataFrame,        // ground-truth pairs (a, b)
    embedSeconds: Double,
    entities: Long,
    ann: AnnConfig,
)

/** Shared experiment engine for the Table III–VII benches and jobs. */
object Harness {

  // Feasibility gates mirroring the paper's "-" (memory) and "\" (7-day)
  // rows; see DESIGN.md. Values are entity counts, positioned relative to
  // the repro-scale datasets so the paper's feasibility *pattern* holds:
  // MSCD-HAC only reaches Geo; AutoFJ/ALMSER stop after the ~20–33 k
  // datasets; the supervised proxies stop after Music-200.
  val AutoFjGate = 35000L
  val SupervisedGate = 50000L
  val AlmserGate = 35000L
  val HacGate = 10000L

  def fmtTime(s: Double): String =
    if (s < 60) f"$s%.1fs" else if (s < 3600) f"${s / 60}%.1fm" else f"${s / 3600}%.1fh"

  /** Run a thunk, returning (result, seconds, peak heap GB).
    *
    * The peak is the sum of every heap memory pool's peak usage while the
    * thunk ran (each pool's peak is reset first). The pools peak at
    * different times, so the sum is an upper bound on the heap's true peak.
    */
  def measure[T](f: => T): (T, Double, Double) = {
    System.gc()
    val pools = ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP)
    pools.foreach(_.resetPeakUsage())
    val t0 = System.nanoTime()
    val r = f
    val secs = (System.nanoTime() - t0) / 1e9
    (r, secs, pools.map(_.getPeakUsage.getUsed).sum / 1e9)
  }

  /** ANN backend choice by scale: exact search (every pair of a table pair
    * scored) up to 10 k entities, blocking-key candidates above (HNSW-style
    * approximation).
    */
  def annFor(entities: Long): AnnConfig =
    if (entities <= 10000) AnnConfig(exact = true) else AnnConfig(exact = false)

  def evalBoth(pred: DataFrame, gt: DataFrame): (Scores, Scores) =
    (Metrics.tupleScores(pred, gt), Metrics.pairScores(pred, gt))

  // ------------------------------------------------------------- MultiEM --

  /** EER's sample ratio r (Algorithm 1 line 2): 0.05 for Person, the paper's
    * 5 M-entity dataset, and 0.2 for the others.
    */
  def sampleRatioFor(dataset: String): Double = if (dataset == "Person") 0.05 else 0.2

  def multiEmConfig(entities: Long, t: Tuned, sampleRatio: Double, useEer: Boolean = true): MultiEmConfig =
    MultiEmConfig(
      useEer = useEer,
      sampleRatio = sampleRatio,
      merge = MergeConfig(k = 1, m = t.m, ann = annFor(entities)),
      prune = PruneConfig(eps = t.eps, minPts = 2),
    )

  /** Grid-search (m, ε) against the ground truth, as §IV-A does, on the
    * pipeline `MultiEm.run` runs under `multiEmConfig`: one attribute
    * selection and one representation, then one `Merging.hierarchical` per
    * m and one pruning per ε, so tuning costs a few merges, not a few
    * pipelines.
    */
  def tuneMultiEm(
      ds: EmDataset,
      sampleRatio: Double,
      mGrid: Seq[Double] = Seq(0.45, 0.60),
      epsGrid: Seq[Double] = Seq(0.90, 1.10),
  ): Tuned = {
    val tables = ds.tables.map(_.localCheckpoint())
    val union = tables.reduce(_ unionByName _)
    val cfg = multiEmConfig(union.count(), Tuned(mGrid.head, epsGrid.head, ds.attrs), sampleRatio)
    val gt = ds.gtTuples.localCheckpoint()
    val sel = AttributeSelection.select(union, "eid", ds.attrs, cfg.sampleRatio, cfg.gamma, cfg.embed, cfg.seed)
    val emb = MultiEm.representWithKeys(union, sel.selected, cfg.embed, cfg.merge.ann).localCheckpoint()
    var best = (Double.NegativeInfinity, Tuned(mGrid.head, epsGrid.head, sel.selected))
    for (m <- mGrid) {
      val merged = Merging.hierarchical(tables, emb, cfg.merge.copy(m = m))
      for (eps <- epsGrid) {
        val pred = DensityPruning.prune(merged, emb, cfg.prune.copy(eps = eps))
        val f1 = Metrics.tupleScores(pred, gt).f1
        Console.err.println(f"[tune] m=$m eps=$eps -> F1=$f1%.1f")
        if (f1 > best._1) best = (f1, Tuned(m, eps, sel.selected))
      }
    }
    best._2
  }

  /** All Table IV/V/VI MultiEM rows for one dataset: full (timed), w/o EER,
    * and w/o DP (the full run's merged table, unpruned).
    */
  def runMultiEmAll(bd: BenchDataset, t: Tuned, sampleRatio: Double): Seq[RunOutcome] = {
    val ds = bd.ds
    val entities = ds.df.count()
    val gt = ds.gtTuples.localCheckpoint()
    val tables = ds.tables.map(_.localCheckpoint())

    val (full, secs, mem) = measure {
      MultiEm.run(tables, ds.attrs, multiEmConfig(entities, t, sampleRatio))
    }
    val (tf, pf) = evalBoth(full.tuples, gt)
    val (tNoDp, pNoDp) = evalBoth(full.tuplesWithoutPruning, gt)

    val noEer = MultiEm.run(tables, ds.attrs, multiEmConfig(entities, t, sampleRatio, useEer = false))
    val (tNoEer, pNoEer) = evalBoth(noEer.tuples, gt)

    Seq(
      RunOutcome("MultiEM", ds.name, Some(tf), Some(pf), Some(secs), Some(mem)),
      RunOutcome("MultiEM w/o EER", ds.name, Some(tNoEer), Some(pNoEer), None, None),
      RunOutcome("MultiEM w/o DP", ds.name, Some(tNoDp), Some(pNoDp), None, None),
    )
  }

  // ----------------------------------------------------------- baselines --

  /** Embed once (all attributes — baselines have no EER) and split. */
  def prepBaselines(bd: BenchDataset): BaselinePrep = {
    val ds = bd.ds
    val union = ds.df.localCheckpoint()
    val entities = union.count()
    val ann = annFor(entities)
    val ((items, gtPairs), secs, _) = measure {
      val emb = MultiEm.representWithKeys(union, ds.attrs, EmbedConfig(), ann)
      val it = Embedder.serialize(union, ds.attrs)
        .select(col("eid") as "id", col("source"), col("text"))
        .join(emb.withColumnRenamed("eid", "id"), Seq("id"))
        .select("id", "source", "vec", "keys", "text")
        .localCheckpoint()
      (it, Metrics.pairsOf(ds.gtTuples).localCheckpoint())
    }
    val tables = (0 until ds.nSources).map(s =>
      items.filter(col("source") === s).select("id", "vec", "keys", "text").localCheckpoint())
    BaselinePrep(items, tables, ds.gtTuples.localCheckpoint(), gtPairs, secs, entities, ann)
  }

  /** A supervised matcher whose threshold is learned from the 5 % labeled
    * pair split.
    */
  private def supervised(prep: BaselinePrep, name: String, feature: String): SupervisedMatcher = {
    val ex = ThresholdLearner.trainExamples(prep.items, prep.gtPairs, feature, ratio = 0.05)
    SupervisedMatcher(name, ThresholdLearner.bestThreshold(ex), feature, prep.ann)
  }

  /** One baseline cell: the gate symbol when `prep` has over `gate` entities;
    * otherwise the predicted tuples, timed (plus the shared embedding time)
    * and scored against the ground truth.
    */
  private def cell(method: String, dataset: String, prep: BaselinePrep, gate: Long, gateSym: String)(
      predict: => DataFrame): RunOutcome =
    if (prep.entities > gate) RunOutcome(method, dataset, None, None, None, None, gateSym)
    else {
      val (pred, secs, mem) = measure(predict.localCheckpoint())
      val (ts, ps) = evalBoth(pred, prep.gt)
      RunOutcome(method, dataset, Some(ts), Some(ps), Some(secs + prep.embedSeconds), Some(mem))
    }

  /** One two-table-EM baseline × extension cell: PromptEM/Ditto/AutoFJ with
    * pairwise ("pw", one by-source search) or chain ("c") extension,
    * Algorithm 5 for tuples.
    */
  def runTwoTableBaseline(kind: String, ext: String, prep: BaselinePrep, dataset: String): RunOutcome = {
    val (gate, gateSym) = if (kind == "AutoFJ") (AutoFjGate, "-") else (SupervisedGate, "\\")
    cell(s"$kind ($ext)", dataset, prep, gate, gateSym) {
      val matcher: PairMatcher = kind match {
        case "Ditto"    => supervised(prep, "Ditto", "cos")
        case "PromptEM" => supervised(prep, "PromptEM", "cos+jac")
        case _          => AutoFJLite(ann = prep.ann)
      }
      val pairs = ext match {
        case "pw" => Extensions.bySource(prep.items, matcher)
        case "c"  => Extensions.chain(prep.tables, matcher)
      }
      Metrics.pairsToTuples(pairs)
    }
  }

  /** ALMSER-GB proxy cell: a multi-source supervised matcher — the 5 % label
    * budget stands in for the active-learning queries, and the
    * learned-threshold cosine matcher over *all* table pairs stands in for
    * the graph-boosted model (DESIGN.md substitutions). Like the original, it
    * treats multi-table EM as pairwise matching, so its tuples come from
    * Algorithm 5 and it inherits the transitive-conflict weakness the paper
    * demonstrates.
    */
  def runAlmser(prep: BaselinePrep, dataset: String): RunOutcome =
    cell("ALMSER-GB", dataset, prep, AlmserGate, "\\") {
      Metrics.pairsToTuples(Extensions.bySource(prep.items, supervised(prep, "ALMSER-GB", "cos")))
    }

  /** MSCD-HAC cell (driver-local agglomerative clustering, gated at 10 k). */
  def runHac(prep: BaselinePrep, dataset: String, threshold: Double = 0.9): RunOutcome =
    cell("MSCD-HAC", dataset, prep, HacGate, "\\") {
      MscdHac.run(prep.items.sparkSession, prep.items, threshold)
    }

  /** The full baseline column for one dataset (Tables IV/V/VI rows). */
  def runAllBaselines(bd: BenchDataset): Seq[RunOutcome] = {
    val prep = prepBaselines(bd)
    val name = bd.ds.name
    def logged(o: => RunOutcome): RunOutcome = {
      val r = o
      Console.err.println(s"[baseline] ${r.method} on ${r.dataset}: F1=${r.cellF1} t=${r.cellTime}")
      r
    }
    Seq(
      logged(runTwoTableBaseline("PromptEM", "pw", prep, name)),
      logged(runTwoTableBaseline("Ditto", "pw", prep, name)),
      logged(runTwoTableBaseline("AutoFJ", "pw", prep, name)),
      logged(runTwoTableBaseline("PromptEM", "c", prep, name)),
      logged(runTwoTableBaseline("Ditto", "c", prep, name)),
      logged(runTwoTableBaseline("AutoFJ", "c", prep, name)),
      logged(runAlmser(prep, name)),
      logged(runHac(prep, name)),
    )
  }
}
