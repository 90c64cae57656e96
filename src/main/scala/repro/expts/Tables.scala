package repro.expts

import org.apache.spark.sql.SparkSession
import repro.core.{AttributeSelection, MultiEmConfig}
import repro.data.EmDataGen

/** Builders that render each paper table (ours vs paper) as text. The heavy
  * Table IV/V/VI runs share one `ExperimentCache` so the three benches (or
  * jobs run in one JVM) pay for the experiment matrix once.
  */
object Tables {

  private val datasetOrder = Seq("Geo", "Music-20", "Music-200", "Music-2000", "Person", "Shopee")
  private val methodOrder = Seq(
    "PromptEM (pw)", "Ditto (pw)", "AutoFJ (pw)",
    "PromptEM (c)", "Ditto (c)", "AutoFJ (c)",
    "ALMSER-GB", "MSCD-HAC",
    "MultiEM", "MultiEM w/o EER", "MultiEM w/o DP")

  private def pad(s: String, w: Int): String = s.padTo(w, ' ')

  // ------------------------------------------------------------ Table III --

  def tableIII(spark: SparkSession): String = {
    val sb = new StringBuilder
    sb ++= "Table III — dataset statistics (ours vs paper)\n"
    sb ++= f"${pad("Name", 12)}${pad("Srcs", 10)}${pad("Attrs", 10)}${pad("Entities", 22)}${pad("Tuples", 20)}${pad("Pairs", 20)}\n"
    for (bd <- Datasets.all(spark)) {
      val s = EmDataGen.stats(bd.ds)
      val p = PaperNumbers.tableIII.find(_._1 == bd.ds.name).get
      val note = if (bd.scaleNote.nonEmpty) s" [${bd.scaleNote}]" else ""
      sb ++= pad(s.name + note, 12 + note.length)
      sb ++= pad(s"${s.srcs}/${p._2}", 10)
      sb ++= pad(s"${s.attrs}/${p._3}", 10)
      sb ++= pad(s"${s.entities}/${p._4}", 22)
      sb ++= pad(s"${s.tuples}/${p._5}", 20)
      sb ++= pad(s"${s.pairs}/${p._6}", 20)
      sb ++= "\n"
    }
    sb ++= "(cells are ours/paper; scaled datasets shrink proportionally)\n"
    sb.toString
  }

  // -------------------------------------------- Tables IV/V/VI (shared) --

  /** One shared run of the full experiment matrix per JVM. */
  object ExperimentCache {
    @volatile private var cached: Option[Seq[RunOutcome]] = None

    def outcomes(spark: SparkSession): Seq[RunOutcome] = synchronized {
      cached.getOrElse {
        val out = computeAll(spark)
        cached = Some(out)
        out
      }
    }

    private def computeAll(spark: SparkSession): Seq[RunOutcome] = {
      val all = Datasets.all(spark)
      // Tune each family's hyperparameters on a small subsample (the paper
      // grid-searches per dataset; calibrating on a subsample keeps the
      // grid affordable and transfers because the noise model is scale-free).
      def tune(name: String, ds: repro.data.EmDataset): Tuned = {
        Console.err.println(s"[ExperimentCache] tuning on $name")
        val t = Harness.tuneMultiEm(ds, Harness.sampleRatioFor(ds.name))
        Console.err.println(s"[ExperimentCache] tuned $name -> $t")
        t
      }
      val geoT = tune("geo-sample", EmDataGen.geo(spark, scale = 0.3))
      val m20T = tune("music-sample", EmDataGen.music(spark, nTuples = 1200L))
      val shopT = tune("shopee-sample", EmDataGen.shopee(spark, scale = 0.12))
      val persT = tune("person-sample", EmDataGen.person(spark, scale = 0.004))
      def tunedFor(name: String): Tuned = name match {
        case "Geo" => geoT
        case "Shopee" => shopT
        case "Person" => persT
        case _ => m20T
      }
      all.flatMap { bd =>
        val name = bd.ds.name
        Console.err.println(s"[ExperimentCache] running dataset $name (tuned=${tunedFor(name)})")
        val multi = Harness.runMultiEmAll(bd, tunedFor(name), Harness.sampleRatioFor(name))
        Console.err.println(s"[ExperimentCache] $name MultiEM done: " +
          multi.map(o => s"${o.method}=${o.cellF1}/${o.cellPairF1}").mkString(", "))
        val base = Harness.runAllBaselines(bd)
        Console.err.println(s"[ExperimentCache] $name baselines done: " +
          base.map(o => s"${o.method}=${o.cellF1}").mkString(", "))
        multi ++ base
      }
    }
  }

  private def grid(outs: Seq[RunOutcome], cell: RunOutcome => String, title: String): String = {
    val byKey = outs.map(o => (o.method, o.dataset) -> o).toMap
    val sb = new StringBuilder
    sb ++= title + "\n"
    sb ++= pad("Method", 22) + datasetOrder.map(pad(_, 16)).mkString + "\n"
    for (m <- methodOrder) {
      sb ++= pad(m, 22)
      for (d <- datasetOrder) {
        val c = byKey.get((m, d)).map(cell).getOrElse("·")
        sb ++= pad(c, 16)
      }
      sb ++= "\n"
    }
    sb.toString
  }

  def tableIV(spark: SparkSession): String = {
    val outs = ExperimentCache.outcomes(spark)
    grid(outs, o => {
      val paper = PaperNumbers.tableIV.get((o.method, o.dataset))
      val ours = s"${o.cellF1}/${o.cellPairF1}"
      paper.map(p => s"$ours (${p._1}/${p._2})").getOrElse(ours)
    }, "Table IV — effectiveness: ours F1/pair-F1 (paper F1/pair-F1 where legible)")
  }

  def tableV(spark: SparkSession): String = {
    val outs = ExperimentCache.outcomes(spark)
    grid(outs, o => {
      val paper = PaperNumbers.tableV.get((o.method, o.dataset))
      paper.map(p => s"${o.cellTime} ($p)").getOrElse(o.cellTime)
    }, "Table V — running time: ours (paper)")
  }

  def tableVI(spark: SparkSession): String = {
    val outs = ExperimentCache.outcomes(spark)
    grid(outs, o => {
      val paper = PaperNumbers.tableVI.get((o.method, o.dataset))
      paper.map(p => s"${o.cellMem} ($p)").getOrElse(o.cellMem)
    }, "Table VI — peak heap: ours (paper RSS where legible)")
  }

  // ------------------------------------------------------------ Table VII --

  def tableVII(spark: SparkSession): String = {
    val sb = new StringBuilder
    sb ++= "Table VII — automated selected attributes (ours vs paper)\n"
    for (bd <- Datasets.all(spark)) {
      val ds = bd.ds
      val union = ds.tables.reduce(_ unionByName _)
      val cfg = MultiEmConfig(sampleRatio = Harness.sampleRatioFor(ds.name))
      val sel = AttributeSelection.select(union, "eid", ds.attrs, cfg.sampleRatio, cfg.gamma, cfg.embed, cfg.seed)
      val paper = PaperNumbers.tableVII(ds.name)
      sb ++= s"${pad(ds.name, 12)} ours: ${sel.selected.mkString(", ")}\n"
      sb ++= s"${pad("", 12)} paper: ${paper._2}\n"
      sb ++= s"${pad("", 12)} scores: ${sel.scores.toSeq.sortBy(-_._2).map { case (a, v) => f"$a=$v%.3f" }.mkString(", ")}\n"
    }
    sb.toString
  }
}
