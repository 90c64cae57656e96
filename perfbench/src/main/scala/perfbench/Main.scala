package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import java.security.MessageDigest
import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.ann.AnnConfig
import repro.core._
import repro.data.{EmDataGen, EmDataset}
import repro.embed.EmbedConfig
import repro.eval.Metrics

/** A workload: a generated dataset and MultiEM's fixed hyperparameters.
  * `run.py` passes every field from `workloads.json`.
  */
final case class Workload(
    dataset: String,
    scale: Double,
    seed: Long,
    m: Double,
    eps: Double,
    gamma: Double,
    sampleRatio: Double,
    exact: Boolean,
    parallel: Boolean,
) {
  def generate(spark: SparkSession): EmDataset = dataset match {
    case "geo"    => EmDataGen.geo(spark, scale, seed)
    case "music"  => EmDataGen.music(spark, math.max(1L, (5000 * scale).toLong), seed, "Music-20")
    case "shopee" => EmDataGen.shopee(spark, scale, seed)
    case other    => throw new IllegalArgumentException(s"unknown dataset $other")
  }

  def config: MultiEmConfig = MultiEmConfig(
    embed = EmbedConfig(),
    useEer = true,
    gamma = gamma,
    sampleRatio = sampleRatio,
    merge = MergeConfig(k = 1, m = m, ann = AnnConfig(exact = exact), parallel = parallel),
    usePruning = true,
    prune = PruneConfig(eps = eps, minPts = 2),
    seed = seed,
  )
}

/** The benchmark's JVM side. One process: start Spark, set the workload up,
  * then run MultiEM in a closed loop (one pipeline at a time) for the given
  * number of seconds and at least two runs, checking every run's tuples. With `trace 1` each loop
  * iteration is an untraced run followed by a layer-by-layer traced run.
  * Raw figures go to the `out` file as one JSON object; `run.py` turns them
  * into the benchmark's metrics.
  *
  * Arguments are `key value` pairs: dataset, scale, seed, m, eps, gamma,
  * sample_ratio, exact, parallel, seconds, trace, out.
  */
object Main {

  /** Local-mode Spark on at most four threads, with the bench suite's
    * settings (no broadcast joins, no whole-stage codegen, no AQE), two
    * shuffle partitions (the workloads hold a few hundred entities, so more
    * partitions only add per-task cost) and a generated-code cache large
    * enough for every class one pipeline run generates: with the default
    * 100 entries each run recompiles its expressions and never reaches a
    * steady speed.
    */
  def session(): SparkSession =
    SparkSession.builder
      .master(s"local[${math.min(4, Runtime.getRuntime.availableProcessors())}]")
      .appName("multiem-perfbench")
      .config("spark.default.parallelism", 4)
      .config("spark.sql.shuffle.partitions", 2)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.sql.codegen.wholeStage", false)
      .config("spark.sql.adaptive.enabled", false)
      .config("spark.sql.codegen.cache.maxEntries", 5000)
      .config("spark.ui.enabled", false)
      .getOrCreate()

  def main(args: Array[String]): Unit = {
    val kv = args.grouped(2).map { case Array(k, v) => k -> v }.toMap
    val w = Workload(kv("dataset"), kv("scale").toDouble, kv("seed").toLong, kv("m").toDouble,
      kv("eps").toDouble, kv("gamma").toDouble, kv("sample_ratio").toDouble, kv("exact").toBoolean,
      kv("parallel").toBoolean)
    val spark = session()
    val sparkStart = (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3
    try {
      val json = Bench(spark, w, kv("seconds").toDouble, kv("trace") == "1", sparkStart)
      Files.write(Paths.get(kv("out")), json.getBytes(StandardCharsets.UTF_8))
    } finally spark.stop()
  }
}

object Bench {

  /** Set-up rounds (generate and checkpoint the tables); `setup_s` takes their median. */
  val SetupReps = 3

  def seconds[T](f: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = f
    (r, (System.nanoTime() - t0) / 1e9)
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** SHA-256 of the sorted tuple set, and its size. */
  def digest(tuples: DataFrame): (String, Long) = {
    val rows = tuples.select("members").collect().map(_.getSeq[Long](0).sorted.mkString(",")).sorted
    val md = MessageDigest.getInstance("SHA-256")
    rows.foreach(r => md.update((r + "\n").getBytes(StandardCharsets.UTF_8)))
    (md.digest().map("%02x".format(_)).mkString, rows.length.toLong)
  }

  private def num(x: Double): String = if (x.isNaN || x.isInfinite) "null" else x.toString
  private def str(s: String): String = "\"" + s.replace("\\", "\\\\").replace("\"", "\\\"").replace("\n", " ") + "\""
  private def obj(fields: Seq[(String, String)]): String = fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
  private def arr(xs: Seq[Double]): String = xs.map(num).mkString("[", ", ", "]")

  def apply(spark: SparkSession, w: Workload, budget: Double, trace: Boolean, sparkStart: Double): String = {
    val sc = spark.sparkContext
    val cfg = w.config
    val tBench = System.nanoTime()

    // Set-up: generate and checkpoint the tables (repeated, median reported),
    // then one cold pipeline run whose tuples every later run must reproduce.
    var ds: EmDataset = null
    var tables: Seq[DataFrame] = Nil
    var gt: DataFrame = null
    var entities = 0L
    val genTimes = (1 to SetupReps).map { _ =>
      seconds {
        ds = w.generate(spark)
        tables = ds.tables.map(_.localCheckpoint())
        gt = ds.gtTuples.localCheckpoint()
        entities = tables.map(_.count()).sum
      }._2
    }
    val (cold, coldS) = seconds(MultiEm.run(tables, ds.attrs, cfg))
    val (refDigest, nTuples) = digest(cold.tuples)
    val tEval = System.nanoTime()
    val (tupleF1, pairF1) = (Metrics.tupleScores(cold.tuples, gt).f1, Metrics.pairScores(cold.tuples, gt).f1)
    val evalS = (System.nanoTime() - tEval) / 1e9

    val runTimes = ArrayBuffer.empty[Double]
    val errors = ArrayBuffer.empty[String]
    var attempted = 0
    def untraced(): Unit = {
      attempted += 1
      try {
        val (res, s) = seconds(MultiEm.run(tables, ds.attrs, cfg))
        val (d, _) = digest(res.tuples)
        if (d == refDigest) runTimes += s else errors += s"untraced run $attempted: tuple digest $d != $refDigest"
      } catch { case NonFatal(e) => errors += s"untraced run $attempted: $e" }
    }

    val listener = new LayerListener
    val traced = ArrayBuffer.empty[Map[String, Double]]
    def tracedRun(): Unit = {
      attempted += 1
      try {
        listener.reset(sc)
        val tr = new Tracer(name => LayerListener.tag(sc, name.takeWhile(_ != '.'), name))
        val res = tr.span("pipeline", -1)(root => LayeredRun.run(tables, ds.attrs, cfg, tr, root))
        tr.span("eval.scores", -1) { _ => Metrics.tupleScores(res.tuples, gt); Metrics.pairScores(res.tuples, gt) }
        val work = listener.snapshot(sc)
        val restore = LayerListener.tag(sc, "count", "work counts")
        val counts = try WorkCounts(res, ds.attrs, cfg) finally restore()
        val (d, _) = digest(res.tuples)
        if (d == refDigest) traced += TraceMetrics(tr.spans, work, counts)
        else errors += s"traced run $attempted: tuple digest $d != $refDigest"
      } catch { case NonFatal(e) => errors += s"traced run $attempted: $e" }
    }

    if (trace) sc.addSparkListener(listener)
    // At least two iterations, so a run slower than the budget is never the
    // only sample.
    val t0 = System.nanoTime()
    var iterations = 0
    while (iterations < 2 || (System.nanoTime() - t0) / 1e9 < budget) {
      untraced()
      if (trace) tracedRun()
      iterations += 1
    }
    if (trace) sc.removeSparkListener(listener)

    val traceJson =
      if (traced.isEmpty) "null"
      else obj(traced.head.keys.toSeq.sorted.map(k => k -> num(median(traced.map(_(k)).toSeq))))
    obj(Seq(
      "dataset" -> str(ds.name),
      "entities" -> entities.toString,
      "selected" -> cold.selectedAttrs.map(str).mkString("[", ", ", "]"),
      "spark_start_s" -> num(sparkStart),
      "gen_s" -> arr(genTimes),
      "cold_s" -> num(coldS),
      "eval_s" -> num(evalS),
      "bench_s" -> num((System.nanoTime() - tBench) / 1e9),
      "setup_s" -> num(sparkStart + median(genTimes) + coldS),
      "run_s" -> arr(runTimes.toSeq),
      "traced_runs" -> traced.size.toString,
      "attempted" -> attempted.toString,
      "failed" -> errors.size.toString,
      "errors" -> errors.map(str).mkString("[", ", ", "]"),
      "digest" -> str(refDigest),
      "tuples" -> nTuples.toString,
      "tuple_f1" -> num(tupleF1),
      "pair_f1" -> num(pairF1),
      "trace" -> traceJson,
    ))
  }
}

/** Per-layer metrics of one traced run. */
object TraceMetrics {
  val Layers = Seq("eer", "embed", "ann", "merge", "prune", "eval")
  /** Levels with a `merge.level<i>_s` metric: Music-20's five sources merge in three. */
  val ReportedLevels = 3

  def apply(spans: Seq[Span], work: Map[String, SparkWork], counts: Map[String, Double]): Map[String, Double] = {
    val self = SpanMath.layerSelfSeconds(spans)
    def total(name: String) = SpanMath.totalSeconds(spans, name)
    val levels = (1 to ReportedLevels).map(i => s"merge.level${i}_s" -> total(s"merge.level$i"))
    val levelWall = spans.filter(_.name.startsWith("merge.level")).map(_.nanos).sum / 1e9
    val timed = Map(
      "trace.total_s" -> total("pipeline"),
      "eer.select_s" -> total("eer.select"),
      "embed.explode_s" -> total("embed.explode"),
      "embed.weights_s" -> total("embed.weights"),
      "embed.vectors_s" -> total("embed.vectors"),
      "embed.keys_s" -> total("embed.keys"),
      "ann.mutual_pairs_s" -> total("ann.mutual_pairs"),
      "merge.two_table_s" -> total("merge.two_table"),
      "merge.level_overlap" -> (if (levelWall == 0) 0.0 else total("merge.pair") / levelWall),
      "prune.s" -> total("prune.prune"),
      "eval.s" -> total("eval.scores"),
    ) ++ levels ++ Layers.map(l => s"$l.self_s" -> self.getOrElse(l, 0.0))
    val spark = Layers.flatMap { l =>
      val s = work.getOrElse(l, SparkWork())
      Seq(
        s"$l.spark.jobs" -> s.jobs.toDouble,
        s"$l.spark.tasks" -> s.tasks.toDouble,
        s"$l.spark.task_s" -> s.taskNanos / 1e9,
        s"$l.spark.shuffle_write_bytes" -> s.shuffleWriteBytes.toDouble,
        s"$l.spark.shuffle_read_bytes" -> s.shuffleReadBytes.toDouble,
        s"$l.spark.failed_tasks" -> s.failedTasks.toDouble,
      )
    }
    timed ++ spark ++ counts
  }
}
