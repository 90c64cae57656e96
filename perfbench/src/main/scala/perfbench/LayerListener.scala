package perfbench

import scala.collection.mutable
import org.apache.spark.{ListenerDrain, SparkContext, Success}
import org.apache.spark.scheduler._

/** Spark work of one layer: jobs and tasks run, executor time busy, shuffle
  * bytes moved, and tasks that failed.
  */
final case class SparkWork(
    jobs: Long = 0,
    tasks: Long = 0,
    taskNanos: Long = 0,
    shuffleWriteBytes: Long = 0,
    shuffleReadBytes: Long = 0,
    failedTasks: Long = 0,
)

/** Attributes every Spark job to the layer named by the job group its caller
  * set (`LayerListener.JobGroup`) and sums that layer's task counters.
  * Jobs without a group are filed under "untagged".
  */
final class LayerListener extends SparkListener {
  private val stageLayer = mutable.Map.empty[Int, String]
  private val work = mutable.Map.empty[String, SparkWork].withDefaultValue(SparkWork())

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val layer = Option(e.properties).flatMap(p => Option(p.getProperty(LayerListener.JobGroup))).getOrElse("untagged")
    e.stageIds.foreach(stageLayer(_) = layer)
    work(layer) = work(layer).copy(jobs = work(layer).jobs + 1)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val layer = stageLayer.getOrElse(e.stageId, "untagged")
    val w = work(layer)
    val m = Option(e.taskMetrics)
    work(layer) = w.copy(
      tasks = w.tasks + 1,
      taskNanos = w.taskNanos + m.map(_.executorRunTime * 1000000L).getOrElse(0L),
      shuffleWriteBytes = w.shuffleWriteBytes + m.map(_.shuffleWriteMetrics.bytesWritten).getOrElse(0L),
      shuffleReadBytes = w.shuffleReadBytes + m.map(_.shuffleReadMetrics.totalBytesRead).getOrElse(0L),
      failedTasks = w.failedTasks + (if (e.reason == Success) 0 else 1),
    )
  }

  /** Counters so far, after every queued event has been delivered. */
  def snapshot(sc: SparkContext): Map[String, SparkWork] = {
    ListenerDrain(sc)
    synchronized(work.toMap)
  }

  def reset(sc: SparkContext): Unit = {
    ListenerDrain(sc)
    synchronized { work.clear(); stageLayer.clear() }
  }
}

object LayerListener {
  /** The local property `SparkContext.setJobGroup` writes. */
  val JobGroup = "spark.jobGroup.id"

  /** Tags the calling thread's jobs with `layer` and returns the undo. */
  def tag(sc: SparkContext, layer: String, description: String): () => Unit = {
    val (group, desc) = (sc.getLocalProperty(JobGroup), sc.getLocalProperty("spark.job.description"))
    sc.setLocalProperty(JobGroup, layer)
    sc.setLocalProperty("spark.job.description", description)
    () => { sc.setLocalProperty(JobGroup, group); sc.setLocalProperty("spark.job.description", desc) }
  }
}
