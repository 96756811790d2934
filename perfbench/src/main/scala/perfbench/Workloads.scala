package perfbench

import repro.core.model.Event
import repro.core.reservoir.ReservoirConfig
import repro.harness.Fig9
import repro.spark.Payments

/** One registered metric statement, with its window and aggregations written
  * out independently of the program's parser so the reference can check it.
  *
  * @param aggs "sum", "count" or "avg", always over `amount` (count over `*`)
  */
final case class QuerySpec(name: String, sql: String, key: String,
                           sizeMs: Long, delayMs: Long, aggs: Seq[String]) {
  def labels: Seq[String] = aggs.map {
    case "count" => "count(*)"
    case a       => s"$a(amount)"
  }
}

/** A benchmark workload: the cluster shape, its metrics and its input.
  *
  * @param rate        wall-clock rate of the fixed-rate phase, events/s
  * @param prefill     events pushed through the full path during set-up, so
  *                    every window is full before the first measured event
  * @param saturation  size of the block offered at once in the saturation
  *                    phase
  * @param failEvery   fail the oldest node and add a fresh one every this many
  *                    fixed-rate events (0 = never)
  */
final case class Workload(name: String,
                          nodes: Int, unitsPerNode: Int, rf: Int,
                          partitioners: Seq[String], partitions: Int,
                          queries: Seq[QuerySpec],
                          reservoir: ReservoirConfig,
                          rate: Double, nCards: Long,
                          prefill: Int, saturation: Int,
                          failEvery: Int = 0) {
  /** Flattened (query, agg label) list; index = position in reference rows. */
  val metrics: Vector[(QuerySpec, String, String)] =
    queries.flatMap(q => q.aggs.zip(q.labels).map { case (a, l) => (q, a, l) }).toVector
}

object Workloads {

  /** Event-time rate of every generated stream: the paper's injector rate. */
  val EventTimeRate: Double = 500.0

  private val minute = 60000L
  /** Events spanning one window at the event-time rate, plus a margin so the
    * tail iterator already evicts on the first measured event.
    */
  private def windowEvents(spanMs: Long): Int = (spanMs / 2 + 1000).toInt

  // Example 1 of the paper: two partitioners, replication, light plan.
  val replicatedPayments: Workload = Workload(
    name = "replicated-payments", nodes = 2, unitsPerNode = 2, rf = 2,
    partitioners = Seq("cardId", "merchantId"), partitions = 4,
    queries = Seq(
      QuerySpec("q1", "SELECT sum(amount), count(*) FROM payments GROUP BY cardId OVER sliding 1 minutes",
        "cardId", minute, 0L, Seq("sum", "count")),
      QuerySpec("q2", "SELECT avg(amount) FROM payments GROUP BY merchantId OVER sliding 1 minutes",
        "merchantId", minute, 0L, Seq("avg"))),
    reservoir = ReservoirConfig(),
    rate = 2000.0, nCards = 50000L,
    prefill = windowEvents(minute), saturation = 12000)

  // Fig. 9b's misaligned windows at 40 windows = 80 iterators: plan and
  // reservoir work dominate, messaging is a small share. With 2 iterators per
  // window and one prefetched chunk each, 80 iterators keep their chunks well
  // inside the 220-chunk cache; at 160 the full path already misses often
  // enough to run near saturation at this rate.
  val misalignedWindows: Workload = {
    val windows = 40
    val specs = Fig9.queriesFor(windows).zipWithIndex.map { case ((name, sql), i) =>
      QuerySpec(name, sql, "cardId", 2000L, 600L * (i + 1), Seq("sum"))
    }
    Workload(
      name = "misaligned-windows", nodes = 1, unitsPerNode = 1, rf = 1,
      partitioners = Seq("cardId"), partitions = 1,
      queries = specs,
      reservoir = ReservoirConfig(chunkSizeEvents = 64, cacheChunks = 220),
      rate = 700.0, nCards = 200L,
      prefill = windowEvents(600L * windows + 2000), saturation = 10000)
  }

  // Node loss and rejoin under load: restore, replay and cold-cache reads.
  val failover: Workload = Workload(
    name = "failover", nodes = 3, unitsPerNode = 2, rf = 2,
    partitioners = Seq("cardId"), partitions = 6,
    queries = Seq(
      QuerySpec("q", "SELECT sum(amount), count(*), avg(amount) FROM payments GROUP BY cardId OVER sliding 1 minutes",
        "cardId", minute, 0L, Seq("sum", "count", "avg"))),
    reservoir = ReservoirConfig(),
    rate = 1000.0, nCards = 50000L,
    prefill = windowEvents(minute), saturation = 12000,
    failEvery = 2500)

  val all: Seq[Workload] = Seq(replicatedPayments, misalignedWindows, failover)

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  /** One deployment's input: prefill, then the fixed-rate phase, then the
    * saturation block, as one event-time-ordered payments stream.
    */
  def events(w: Workload, fixedRateEvents: Int, seed: Long): Array[Event] =
    Payments.events(w.prefill + fixedRateEvents + w.saturation,
      EventTimeRate, nCards = w.nCards, seed = seed).toArray
}
