package repro.expts

import org.apache.spark.sql.SparkSession
import repro.data.{EmDataGen, EmDataset}

/** One benchmark dataset plus its reproduction-scale bookkeeping.
  *
  * @param ds            the generated dataset
  * @param paperEntities the entity count of the paper's original
  * @param scaleNote     "" when generated at paper scale, else e.g. "scale 0.2"
  */
case class BenchDataset(ds: EmDataset, paperEntities: Long, scaleNote: String)

/** Registry of the six Table III datasets at reproduction scales.
  *
  * Geo, Music-20 and Shopee are generated at the paper's sizes; Music-200,
  * Music-2000 and Person are scaled down for the single-node container
  * (DESIGN.md), overridable via env:
  *   REPRO_MUSIC200_SCALE (default 0.2), REPRO_MUSIC2000_SCALE (default 0.04),
  *   REPRO_PERSON_SCALE (default 0.015),
  *   REPRO_BENCH_FAST=1 shrinks everything ~10× for smoke runs.
  */
object Datasets {

  private def envD(name: String, default: Double): Double =
    sys.env.get(name).map(_.toDouble).getOrElse(default)

  private def fast: Double = if (sys.env.get("REPRO_BENCH_FAST").contains("1")) 0.1 else 1.0

  def geo(spark: SparkSession): BenchDataset =
    BenchDataset(EmDataGen.geo(spark, scale = 1.0 * fast), 3054, if (fast < 1) "fast" else "")

  def music20(spark: SparkSession): BenchDataset =
    BenchDataset(EmDataGen.music(spark, (5000 * fast).toLong, name = "Music-20"), 19375, if (fast < 1) "fast" else "")

  def music200(spark: SparkSession): BenchDataset = {
    val s = envD("REPRO_MUSIC200_SCALE", 0.2) * fast
    BenchDataset(EmDataGen.music(spark, (50000 * s).toLong, name = "Music-200"), 193750, f"scale $s%.2f")
  }

  def music2000(spark: SparkSession): BenchDataset = {
    val s = envD("REPRO_MUSIC2000_SCALE", 0.04) * fast
    BenchDataset(EmDataGen.music(spark, (500000 * s).toLong, name = "Music-2000"), 1937500, f"scale $s%.3f")
  }

  def person(spark: SparkSession): BenchDataset = {
    val s = envD("REPRO_PERSON_SCALE", 0.015) * fast
    BenchDataset(EmDataGen.person(spark, s), 5000000, f"scale $s%.3f")
  }

  def shopee(spark: SparkSession): BenchDataset =
    BenchDataset(EmDataGen.shopee(spark, scale = 1.0 * fast), 32563, if (fast < 1) "fast" else "")

  /** All six, in the paper's column order. */
  def all(spark: SparkSession): Seq[BenchDataset] =
    Seq(geo(spark), music20(spark), music200(spark), music2000(spark), person(spark), shopee(spark))
}
