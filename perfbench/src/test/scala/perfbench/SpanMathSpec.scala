package perfbench

import org.scalactic.Tolerance._
import org.scalatest.funsuite.AnyFunSuite

class SpanMathSpec extends AnyFunSuite {

  private def s(id: Int, name: String, parent: Int, start: Long, end: Long) = Span(id, name, parent, start, end)

  test("covered counts overlapping intervals once and clips them to the window") {
    assert(SpanMath.covered(0, 100, Seq((10, 30), (20, 40), (90, 150))) === 40)
    assert(SpanMath.covered(0, 100, Seq((-50, 10), (50, 60))) === 20)
    assert(SpanMath.covered(0, 100, Seq((10, 20), (12, 15))) === 10)
    assert(SpanMath.covered(0, 100, Nil) === 0)
    assert(SpanMath.covered(0, 100, Seq((100, 120), (-5, 0))) === 0)
  }

  test("self time is the duration minus what direct children cover") {
    val spans = Seq(
      s(0, "pipeline", -1, 0, 100),
      s(1, "eer.select", 0, 0, 20),
      s(2, "merge.level1", 0, 20, 90),
      s(3, "merge.pair", 2, 25, 85),
      s(4, "ann.mutual_pairs", 3, 25, 45),
      s(5, "merge.two_table", 3, 45, 85),
    )
    val self = SpanMath.selfNanos(spans)
    assert(self === Map(0 -> 10L, 1 -> 20L, 2 -> 10L, 3 -> 0L, 4 -> 20L, 5 -> 40L))
    // Self times partition the root span.
    assert(self.values.sum === 100L)
  }

  test("parallel children overlapping in time are not subtracted twice") {
    val spans = Seq(
      s(0, "merge.level1", -1, 0, 100),
      s(1, "merge.pair", 0, 10, 70),
      s(2, "merge.pair", 0, 20, 90),
    )
    assert(SpanMath.selfNanos(spans)(0) === 20L)
    // Summed child time over level wall time is the level's overlap.
    assert(SpanMath.totalSeconds(spans, "merge.pair") / SpanMath.totalSeconds(spans, "merge.level1") === 1.3 +- 1e-12)
  }

  test("layer self time sums the self time of every span of the layer") {
    val spans = Seq(
      s(0, "pipeline", -1, 0, 1000000000L),
      s(1, "merge.level1", 0, 0, 600000000L),
      s(2, "ann.mutual_pairs", 1, 0, 200000000L),
      s(3, "merge.final", 0, 600000000L, 700000000L),
      s(4, "eval.scores", -1, 1000000000L, 1500000000L),
    )
    val bySelf = SpanMath.layerSelfSeconds(spans)
    assert(bySelf("merge") === 0.5 +- 1e-12)
    assert(bySelf("ann") === 0.2 +- 1e-12)
    assert(bySelf("pipeline") === 0.3 +- 1e-12)
    assert(bySelf("eval") === 0.5 +- 1e-12)
  }

  test("level overlap counts every merge level; level times are reported for the first three") {
    val ms = 1000000L
    val spans = Seq(
      s(0, "pipeline", -1, 0, 1000 * ms),
      s(1, "merge.level1", 0, 0, 100 * ms),
      s(2, "merge.pair", 1, 0, 100 * ms),
      s(3, "merge.pair", 1, 0, 100 * ms),
      s(4, "merge.level2", 0, 100 * ms, 200 * ms),
      s(5, "merge.pair", 4, 100 * ms, 200 * ms),
      s(6, "merge.level3", 0, 200 * ms, 300 * ms),
      s(7, "merge.pair", 6, 200 * ms, 300 * ms),
      s(8, "merge.level4", 0, 300 * ms, 400 * ms),
      s(9, "merge.pair", 8, 300 * ms, 400 * ms),
    )
    val m = TraceMetrics(spans, Map.empty, Map.empty)
    assert(m("merge.level_overlap") === 1.25 +- 1e-12)
    assert(m("merge.level3_s") === 0.1 +- 1e-12)
    assert(!m.contains("merge.level4_s"))
  }

  test("a tracer records name, parent and ordered times, and runs the enter hook around the body") {
    val log = scala.collection.mutable.ArrayBuffer.empty[String]
    val tr = new Tracer(name => { log += s"open $name"; () => log += s"close $name" })
    val out = tr.span("pipeline", -1) { root =>
      tr.span("eer.select", root) { _ => log += "body"; 42 }
    }
    assert(out === 42)
    assert(log.toList === List("open pipeline", "open eer.select", "body", "close eer.select", "close pipeline"))
    val byName = tr.spans.map(sp => sp.name -> sp).toMap
    assert(byName("eer.select").parent === byName("pipeline").id)
    assert(byName("pipeline").parent === -1)
    assert(byName("eer.select").layer === "eer")
    assert(byName("pipeline").startNs <= byName("eer.select").startNs)
    assert(byName("eer.select").endNs <= byName("pipeline").endNs)
  }
}
