package perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Path}
import javax.management.ObjectName
import scala.jdk.CollectionConverters._

object Stats {

  /** Nearest-rank percentile (p in 0..100); NaN for an empty sample. */
  def percentile(xs: Array[Double], p: Double): Double =
    if (xs.isEmpty) Double.NaN
    else {
      val s = xs.clone(); java.util.Arrays.sort(s)
      s(math.min(s.length - 1, math.max(0, math.ceil(p / 100.0 * s.length).toInt - 1)))
    }

  def median(xs: Seq[Double]): Double = percentile(xs.toArray, 50.0)

  /** Collection time summed over every garbage collector, ms. */
  def gcMs(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum

  /** Bytes allocated so far by the calling thread. */
  def threadAllocatedBytes(): Long = ManagementFactory.getThreadMXBean match {
    case t: com.sun.management.ThreadMXBean => t.getThreadAllocatedBytes(Thread.currentThread().getId)
    case _                                  => 0L
  }

  /** Bytes of live objects: the total of a class histogram, which the JVM
    * takes right after a full collection. The heap's used size after
    * `System.gc()` is not used: it also counts dead space the parallel
    * collector leaves uncompacted, which varied by several MB from run to run.
    */
  def liveHeapBytes(): Long = {
    val histogram = ManagementFactory.getPlatformMBeanServer.invoke(
      new ObjectName("com.sun.management:type=DiagnosticCommand"), "gcClassHistogram",
      Array[AnyRef](Array.empty[String]), Array(classOf[Array[String]].getName)).toString
    histogram.linesIterator.find(_.startsWith("Total")).get.trim.split("\\s+")(2).toLong
  }

  /** Bytes of every regular file under dir. */
  def diskBytes(dir: Path): Long =
    if (!Files.exists(dir)) 0L
    else {
      val s = Files.walk(dir)
      try s.iterator().asScala.filter(Files.isRegularFile(_)).map(Files.size).sum
      finally s.close()
    }

  def deleteTree(dir: Path): Unit = if (Files.exists(dir)) {
    val s = Files.walk(dir)
    try s.iterator().asScala.toSeq.reverse.foreach(Files.deleteIfExists)
    finally s.close()
  }

  /** Wall time of a fixed integer loop, ms: a marker of how fast the host ran
    * this process, so runs from differently loaded hosts are not compared
    * silently. It enters no metric.
    */
  def hostLoopMs(): Double = {
    val t0 = System.nanoTime()
    var x = 0x9E3779B97F4A7C15L
    var i = 0
    while (i < 50000000) { x ^= x << 13; x ^= x >>> 7; x ^= x << 17; i += 1 }
    if (x == 42L) println()
    (System.nanoTime() - t0) / 1e6
  }

  // ---- JSON ------------------------------------------------------------------

  def json(v: Any): String = v match {
    case null                => "null"
    case s: String           => "\"" + s.flatMap {
        case '"'  => "\\\""
        case '\\' => "\\\\"
        case '\n' => "\\n"
        case c if c < ' ' => f"\\u${c.toInt}%04x"
        case c    => c.toString
      } + "\""
    case b: Boolean          => b.toString
    case d: Double           => if (d.isNaN || d.isInfinite) "null" else d.toString
    case f: Float            => json(f.toDouble)
    case n: Int              => n.toString
    case n: Long             => n.toString
    case m: collection.Map[_, _] =>
      m.map { case (k, x) => json(k.toString) + ": " + json(x) }.mkString("{", ", ", "}")
    case xs: Iterable[_]     => xs.map(json).mkString("[", ", ", "]")
    case other               => json(other.toString)
  }
}
