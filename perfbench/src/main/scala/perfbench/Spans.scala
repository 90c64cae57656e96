package perfbench

import java.util.concurrent.atomic.AtomicInteger
import scala.collection.mutable.ArrayBuffer

/** One timed call: `name` is `<layer>.<call>`, `parent` is the id of the span
  * that caused it (-1 for a root). Times are `System.nanoTime` readings.
  */
final case class Span(id: Int, name: String, parent: Int, startNs: Long, endNs: Long) {
  def layer: String = name.takeWhile(_ != '.')
  def nanos: Long = endNs - startNs
}

/** In-memory span recorder, safe to use from the parallel merge threads.
  *
  * `enter` runs when a span opens and returns what to run when it closes;
  * the benchmark uses it to tag the calling thread's Spark jobs with the
  * span's layer.
  */
final class Tracer(enter: String => (() => Unit) = _ => () => ()) {
  private val nextId = new AtomicInteger(0)
  private val done = ArrayBuffer.empty[Span]

  /** Runs `body` inside a new span; `body` receives the span's id so it can
    * parent spans it opens on other threads.
    */
  def span[T](name: String, parent: Int)(body: Int => T): T = {
    val id = nextId.getAndIncrement()
    val restore = enter(name)
    val t0 = System.nanoTime()
    try body(id)
    finally {
      val t1 = System.nanoTime()
      restore()
      done.synchronized { done += Span(id, name, parent, t0, t1) }
    }
  }

  def spans: Seq[Span] = done.synchronized(done.toList)
}

/** Self-time arithmetic over a finished span tree. */
object SpanMath {

  /** Nanoseconds of `[lo, hi)` covered by the union of `intervals`. */
  def covered(lo: Long, hi: Long, intervals: Seq[(Long, Long)]): Long = {
    val clipped = intervals.map { case (s, e) => (math.max(s, lo), math.min(e, hi)) }.filter { case (s, e) => e > s }
    var total = 0L
    var reach = lo
    for ((s, e) <- clipped.sortBy(_._1)) {
      val from = math.max(s, reach)
      if (e > from) { total += e - from; reach = e }
    }
    total
  }

  /** A span's duration minus the part of it its children cover (children may
    * overlap one another when merges run in parallel).
    */
  def selfNanos(spans: Seq[Span]): Map[Int, Long] = {
    val kids = spans.groupBy(_.parent)
    spans.map { s =>
      val c = kids.getOrElse(s.id, Nil).map(k => (k.startNs, k.endNs))
      s.id -> (s.nanos - covered(s.startNs, s.endNs, c))
    }.toMap
  }

  /** Self time per layer, in seconds. */
  def layerSelfSeconds(spans: Seq[Span]): Map[String, Double] = {
    val self = selfNanos(spans)
    spans.groupBy(_.layer).map { case (l, ss) => l -> ss.map(s => self(s.id)).sum / 1e9 }
  }

  /** Summed duration of the spans named `name`, in seconds. */
  def totalSeconds(spans: Seq[Span], name: String): Double =
    spans.filter(_.name == name).map(_.nanos).sum / 1e9
}
