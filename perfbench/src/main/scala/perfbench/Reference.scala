package perfbench

import repro.core.model.Event
import repro.core.plan.MetricResult

import scala.collection.mutable

/** Brute-force answers for every event and metric, computed before the timed
  * phases and independently of the engine.
  *
  * Semantics are those of the sliding-window oracle the test suite uses: the
  * answer for event e aggregates every event x of the same key with
  * e.ts - delay - size < x.ts <= e.ts - delay among the events up to and
  * including e. Each key keeps its full history; a window is found by binary
  * search on the history's timestamps and then summed element by element.
  * An empty window is NaN (no value) for sum and avg and 0 for count.
  */
final class Reference(w: Workload, events: Array[Event]) {

  private val nm = w.metrics.size
  private val values = new Array[Double](events.length * nm)

  private final class History {
    var ts = new Array[Long](16)
    var amount = new Array[Double](16)
    var size = 0
    def add(t: Long, a: Double): Unit = {
      if (size == ts.length) {
        ts = java.util.Arrays.copyOf(ts, size * 2)
        amount = java.util.Arrays.copyOf(amount, size * 2)
      }
      ts(size) = t; amount(size) = a; size += 1
    }
    /** Index of the last entry with ts <= t, or -1. */
    def lastAtOrBefore(t: Long): Int = {
      var lo = 0; var hi = size
      while (lo < hi) { val mid = (lo + hi) >>> 1; if (ts(mid) <= t) lo = mid + 1 else hi = mid }
      lo - 1
    }
  }

  {
    val keys = w.metrics.map(_._1.key).distinct
    val histories = keys.map(k => k -> mutable.HashMap.empty[String, History]).toMap
    var i = 0
    while (i < events.length) {
      val e = events(i)
      val amount = e.num("amount")
      val own = keys.map { k =>
        val h = histories(k).getOrElseUpdate(e.str(k), new History)
        h.add(e.ts, amount)
        k -> h
      }.toMap
      var m = 0
      while (m < nm) {
        val (q, agg, _) = w.metrics(m)
        val h = own(q.key)
        val upper = e.ts - q.delayMs
        val lower = upper - q.sizeMs
        var j = h.lastAtOrBefore(upper)
        var n = 0L; var s = 0.0
        while (j >= 0 && h.ts(j) > lower) { n += 1; s += h.amount(j); j -= 1 }
        values(i * nm + m) = agg match {
          case "count" => n.toDouble
          case "sum"   => if (n == 0) Double.NaN else s
          case "avg"   => if (n == 0) Double.NaN else s / n
        }
        m += 1
      }
      i += 1
    }
  }

  private val index: Map[(String, String), Int] =
    w.metrics.zipWithIndex.map { case ((q, _, label), m) => (q.name, label) -> m }.toMap

  /** Compares the engine's complete answer for events(i); None when correct,
    * otherwise a description of the first mismatch.
    */
  def check(i: Int, results: Seq[MetricResult]): Option[String] = {
    if (results.size != nm) return Some(s"event ${events(i).id}: ${results.size} results, expected $nm")
    val seen = new Array[Boolean](nm)
    val it = results.iterator
    while (it.hasNext) {
      val r = it.next()
      index.get((r.query, r.agg)) match {
        case None => return Some(s"event ${events(i).id}: unexpected metric ${r.query}/${r.agg}")
        case Some(m) =>
          if (seen(m)) return Some(s"event ${events(i).id}: duplicate metric ${r.query}/${r.agg}")
          seen(m) = true
          val want = values(i * nm + m)
          val ok = (r.value, want.isNaN) match {
            case (None, true)     => true
            case (Some(v), false) => math.abs(Reference.num(v) - want) <= 1e-6 * math.max(1.0, math.abs(want))
            case _                => false
          }
          if (!ok) return Some(s"event ${events(i).id} (ts ${events(i).ts}): ${r.query}/${r.agg} = ${r.value}, " +
            s"expected ${if (want.isNaN) "none" else want}")
      }
    }
    None
  }
}

object Reference {
  def num(v: Any): Double = v match {
    case d: Double => d
    case l: Long   => l.toDouble
    case i: Int    => i.toDouble
    case other     => other.toString.toDouble
  }
}
