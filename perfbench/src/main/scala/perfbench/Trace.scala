package perfbench

import scala.collection.mutable

/** Aggregate of one span name: calls, busy time and, when asked for, every
  * duration (for tail percentiles).
  */
final class Span(keepSamples: Boolean = false) {
  var count: Long = 0L
  var totalNs: Long = 0L
  private var samples = new Array[Long](if (keepSamples) 1024 else 0)
  private var n = 0

  def add(ns: Long): Unit = {
    count += 1; totalNs += ns
    if (keepSamples) {
      if (n == samples.length) samples = java.util.Arrays.copyOf(samples, n * 2)
      samples(n) = ns; n += 1
    }
  }

  def meanUs: Double = if (count == 0) 0.0 else totalNs / 1e3 / count
  def totalMs: Double = totalNs / 1e6
  def percentileMs(p: Double): Double =
    Stats.percentile(Array.tabulate(n)(i => samples(i) / 1e6), p)
}

/** Spans recorded by the benchmark around its calls into the program, kept in
  * memory and aggregated per name.
  */
final class Trace {
  private val spans = mutable.LinkedHashMap.empty[String, Span]
  def span(name: String, keepSamples: Boolean = false): Span =
    spans.getOrElseUpdate(name, new Span(keepSamples))
  def totalNs(names: String*): Long = names.map(n => spans.get(n).fold(0L)(_.totalNs)).sum
  def count(names: String*): Long = names.map(n => spans.get(n).fold(0L)(_.count)).sum

  @inline def time[A](s: Span)(body: => A): A = {
    val t0 = System.nanoTime()
    val r = body
    s.add(System.nanoTime() - t0)
    r
  }
}
