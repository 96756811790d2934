package perfbench

import repro.core.model.Event

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Benchmark driver: runs one workload once and prints, as its last line, a
  * JSON object with the answer check and the metrics. The line before it
  * ("info ...") stamps the environment and reports the sample counts, how
  * late the generator ran, the backlog and the failure detail.
  *
  * {{{
  * perfbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --dir <work dir>
  * }}}
  *
  * A run deploys [[Clusters]] clusters one after another, each on its own
  * input drawn from the seed. Each is set up (cluster, stream, metrics,
  * window prefill), driven at the workload's fixed rate for its share of the
  * seconds, and then offered one saturation block. Latencies are pooled over
  * the clusters; set-up time, throughput, heap and disk are their medians.
  * Independent clusters sample independent alignments of the units'
  * checkpoints, which set the latency tail.
  */
object Main {

  val Clusters = 3

  private val LoopSpans = Seq("front_end.publish", "unit.run_once", "front_end.poll_replies",
    "front_end.take_completed", "cluster.fail_node", "cluster.add_node")

  private final case class Input(events: Array[Event], ref: Reference, ledger: Ledger)

  /** What one deployment measured. */
  private final case class Deployment(setupS: Double, fr: FixedRate, saturationEps: Double,
                                      heapMb: Double, diskMb: Double,
                                      busyNs: Long, spanNs: Long, spanCount: Long,
                                      counters: Map[String, Double])

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val w = opts.get("workload").flatMap(Workloads.byName).getOrElse {
      System.err.println(s"unknown or missing --workload; one of ${Workloads.all.map(_.name).mkString(", ")}")
      sys.exit(2)
    }
    val seed = opts.getOrElse("seed", "1").toLong
    val seconds = opts.getOrElse("seconds", "15").toDouble
    val traced = opts.getOrElse("trace", "0") == "1"
    val dir = Paths.get(opts.getOrElse("dir", "perfbench-work"))
    Files.createDirectories(dir)

    // inputs and reference answers, outside every timed region
    val fixedN = math.round(w.rate * seconds / Clusters).toInt
    val inputs = (0 until Clusters).map { c =>
      val events = Workloads.events(w, fixedN, seed * Clusters + c)
      Input(events, new Reference(w, events), new Ledger(events))
    }
    val trace = if (traced) Some(new Trace) else None
    val hostLoopMs = Stats.hostLoopMs()
    val heapBefore = Stats.liveHeapBytes()

    var attempted = 0L
    var failed = 0L
    var missing = 0L
    var firstFailure: Option[String] = None
    var checkpointEvery = 0L

    val deployments = inputs.zipWithIndex.map { case (in, c) =>
      val clusterDir = dir.resolve(s"cluster-$c")
      val t0 = System.nanoTime()
      val run = new ClusterRun(w, in.ledger, in.ref, clusterDir, trace)
      run.offerAtOnce(0, w.prefill)
      val setupS = (System.nanoTime() - t0) / 1e9

      val spanNs0 = trace.fold(0L)(_.totalNs(LoopSpans: _*))
      val spanCount0 = trace.fold(0L)(_.count(LoopSpans: _*))
      val m0 = System.nanoTime()
      val fr = run.fixedRate(w.prefill, w.prefill + fixedN)
      val satFrom = w.prefill + fixedN
      val saturationEps = w.saturation / (run.offerAtOnce(satFrom, satFrom + w.saturation) / 1e9)
      val busyNs = System.nanoTime() - m0 - fr.spinNs
      val spanNs = trace.fold(0L)(_.totalNs(LoopSpans: _*)) - spanNs0
      val spanCount = trace.fold(0L)(_.count(LoopSpans: _*)) - spanCount0

      run.drainIo()
      val diskMb = Stats.diskBytes(clusterDir) / 1e6
      val counters = if (traced) clusterCounters(run) else Map.empty[String, Double]
      checkpointEvery = run.liveUnits.head.checkpointEveryEvents
      run.closeFailedUnits()
      val heapMb = (Stats.liveHeapBytes() - heapBefore) / 1e6

      attempted += run.published; failed += run.failures; missing += run.missing
      firstFailure = firstFailure.orElse(run.firstFailure)
      run.close()
      Stats.deleteTree(clusterDir)
      Deployment(setupS, fr, saturationEps, heapMb, diskMb, busyNs, spanNs, spanCount, counters)
    }

    val latencyMs = deployments.flatMap(_.fr.latencyMs).toArray
    val lateMs = deployments.flatMap(_.fr.lateMs).toArray
    val recoveryMs = deployments.flatMap(_.fr.recoveryMs)
    val p50 = Stats.percentile(latencyMs, 50.0)
    val p99 = Stats.percentile(latencyMs, 99.0)
    val p999 = Stats.percentile(latencyMs, 99.9)
    val throughput = Stats.median(deployments.map(_.saturationEps))

    val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
    def put(name: String, v: Double, unit: String): Unit = metrics(name) = (v, unit)
    if (!traced) {
      put("setup_s", Stats.median(deployments.map(_.setupS)), "s")
      put("latency_p50_ms", p50, "ms")
      put("throughput_eps", throughput, "1/s")
      put("disk_mb", Stats.median(deployments.map(_.diskMb)), "MB")
      put("heap_mb", Stats.median(deployments.map(_.heapMb)), "MB")
    } else {
      val tr = trace.get
      val sum = (k: String) => deployments.map(_.counters(k)).sum
      val ratio = (a: Double, b: Double) => if (b == 0) 0.0 else a / b
      val busyNs = deployments.map(_.busyNs).sum.toDouble
      val spanCostNs = {
        val probe = new Trace; val s = probe.span("probe"); val k = 200000
        val t0 = System.nanoTime(); var i = 0
        while (i < k) { probe.time(s)(i); i += 1 }
        (System.nanoTime() - t0).toDouble / k
      }
      val last = inputs.last.events
      val replay = TaskReplay.run(w, last.take(w.prefill + fixedN), checkpointEvery, dir.resolve("replay"))
      val fromReplay = (k: String, unit: String) => put(k, replay(k), unit)

      put("driver.late_p999_ms", Stats.percentile(lateMs, 99.9), "ms")
      put("driver.backlog_max", deployments.map(_.fr.backlogMax).max.toDouble, "count")
      put("driver.span_coverage", ratio(deployments.map(_.spanNs).sum.toDouble, busyNs), "ratio")
      put("trace.overhead_frac", ratio(deployments.map(_.spanCount).sum * spanCostNs, busyNs), "ratio")
      put("trace.throughput_eps", throughput, "1/s")
      put("trace.latency_p50_ms", p50, "ms")
      put("trace.latency_p99_ms", p99, "ms")
      put("trace.latency_p999_ms", p999, "ms")
      put("front_end.publish_us", tr.span("front_end.publish").meanUs, "us")
      put("front_end.poll_replies_us", tr.span("front_end.poll_replies").meanUs, "us")
      put("unit.run_once_us_per_msg", ratio(tr.span("unit.run_once").totalNs / 1e3, sum("messages")), "us")
      put("unit.run_once_p999_ms", tr.span("unit.run_once_busy").percentileMs(99.9), "ms")
      put("unit.replica_share", 1.0 - ratio(sum("replies"), sum("messages")), "ratio")
      put("task.checkpoints_per_kev", ratio(sum("task_checkpoints") * 1000.0, sum("published")), "count")
      fromReplay("task.process_record_us", "us")
      fromReplay("task.checkpoint_ms", "ms")
      fromReplay("task.checkpoint_p99_ms", "ms")
      fromReplay("task.span_coverage", "ratio")
      fromReplay("codec.event_encode_us", "us")
      fromReplay("codec.event_decode_us", "us")
      fromReplay("codec.reply_encode_us", "us")
      fromReplay("codec.reply_decode_us", "us")
      fromReplay("codec.event_bytes", "B")
      fromReplay("codec.reply_bytes", "B")
      fromReplay("kafka.send_us", "us")
      fromReplay("kafka.poll_us_per_record", "us")
      put("kafka.lag_max", deployments.map(_.fr.lagMax).max.toDouble, "count")
      put("kafka.rebalances", sum("rebalances"), "count")
      fromReplay("reservoir.append_us", "us")
      fromReplay("reservoir.advance_us", "us")
      put("reservoir.cache_hit_rate", if (sum("hits") + sum("misses") == 0) 1.0
        else sum("hits") / (sum("hits") + sum("misses")), "ratio")
      put("reservoir.cache_misses", sum("misses"), "count")
      put("reservoir.prefetches", sum("prefetches"), "count")
      put("reservoir.events_per_chunk", ratio(sum("reservoir_events"), sum("chunks")), "count")
      put("reservoir.stored_mb", sum("stored_bytes") / 1e6 / Clusters, "MB")
      fromReplay("plan.on_event_us", "us")
      put("plan.iterators", deployments.map(_.counters("iterators")).max, "count")
      fromReplay("plan.updates_per_event", "count")
      fromReplay("plan.state_flush_ms", "ms")
      put("store.gets_per_event", ratio(sum("store_gets"), sum("task_events")), "count")
      put("store.puts_per_event", ratio(sum("store_puts"), sum("task_events")), "count")
      put("store.flushes", sum("store_flushes"), "count")
      put("store.compactions", sum("store_compactions"), "count")
      put("store.segments", sum("store_segments"), "count")
      fromReplay("store.checkpoint_ms", "ms")
      put("cluster.fail_node_ms", tr.span("cluster.fail_node").meanUs / 1e3, "ms")
      put("cluster.add_node_ms", tr.span("cluster.add_node").meanUs / 1e3, "ms")
      put("cluster.catchup_ms", tr.span("cluster.catchup").meanUs / 1e3, "ms")
      put("cluster.recovery_ms", if (recoveryMs.isEmpty) 0.0 else Stats.median(recoveryMs), "ms")
      put("cluster.recoveries", sum("recoveries"), "count")
      put("jvm.gc_ms_per_s", ratio(deployments.map(_.fr.gcMs).sum.toDouble,
        deployments.map(_.fr.wallNs).sum / 1e9), "ms/s")
      put("jvm.alloc_bytes_per_event", ratio(deployments.map(_.fr.allocBytes).sum.toDouble,
        Clusters * fixedN.toDouble), "B")
    }
    Stats.deleteTree(dir)

    val info = mutable.LinkedHashMap[String, Any](
      "workload" -> w.name, "seed" -> seed, "seconds" -> seconds, "trace" -> traced,
      "commit" -> sys.props.getOrElse("perfbench.commit", "unknown"),
      "source_sha256" -> sys.props.getOrElse("perfbench.source", "unknown"),
      "nproc" -> Runtime.getRuntime.availableProcessors(),
      "host_loop_ms" -> hostLoopMs,
      "jvm" -> s"${sys.props("java.vm.name")} ${sys.props("java.runtime.version")}",
      "jvm_flags" -> ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.filter(_.startsWith("-X")).toSeq,
      "clusters" -> Clusters,
      "events_per_cluster" -> Map("prefill" -> w.prefill, "fixed_rate" -> fixedN, "saturation" -> w.saturation),
      "offered_rate_eps" -> w.rate,
      "latency_samples" -> latencyMs.length,
      "latency_p99_ms" -> p99,
      "latency_p999_ms" -> p999,
      "samples_beyond_p999" -> latencyMs.count(_ > p999),
      "generator_late_p999_ms" -> Stats.percentile(lateMs, 99.9),
      "generator_late_max_ms" -> lateMs.maxOption.getOrElse(0.0),
      "backlog_end" -> deployments.map(_.fr.backlogEnd),
      "backlog_max" -> deployments.map(_.fr.backlogMax),
      "failed_frac" -> failed.toDouble / math.max(1L, attempted),
      "missing" -> missing,
      "first_failure" -> firstFailure.orNull,
      "recovery_ms" -> recoveryMs,
      "setup_s_each" -> deployments.map(_.setupS),
      "throughput_eps_each" -> deployments.map(_.saturationEps),
      "heap_mb_each" -> deployments.map(_.heapMb))
    println("info " + Stats.json(info))
    val result = mutable.LinkedHashMap[String, Any](
      "correct" -> (failed == 0),
      "attempted" -> attempted,
      "failed" -> failed,
      "metrics" -> metrics.map { case (k, (v, u)) => k -> Map("value" -> v, "unit" -> u) })
    println(Stats.json(result))
    System.out.flush()
    sys.exit(0)
  }

  /** Counters read from the program's public state at the end of a
    * deployment, summed over its live task processors.
    */
  private def clusterCounters(run: ClusterRun): Map[String, Double] = {
    val units = run.everyUnit.toSeq
    val tasks = run.liveUnits.flatMap(_.taskProcessors.values)
    val cache = tasks.map(_.reservoirRef.cacheStats)
    val total = (xs: Seq[Long]) => xs.sum.toDouble
    Map(
      "published" -> run.published.toDouble,
      "messages" -> total(units.map(_.messagesProcessed)),
      "replies" -> total(units.map(_.repliesSent)),
      "task_checkpoints" -> run.taskCheckpoints.toDouble,
      "rebalances" -> run.kafka.rebalances.toDouble,
      "recoveries" -> run.cluster.recoveries.size.toDouble,
      "hits" -> total(cache.map(_.hits)),
      "misses" -> total(cache.map(_.misses)),
      "prefetches" -> total(cache.map(_.prefetches)),
      "reservoir_events" -> total(tasks.map(_.reservoirRef.totalEvents)),
      "chunks" -> total(tasks.map(_.reservoirRef.openChunkId + 1)),
      "stored_bytes" -> total(tasks.map(_.reservoirRef.storedBytes)),
      "iterators" -> tasks.map(_.iteratorCount).maxOption.getOrElse(0).toDouble,
      "task_events" -> total(tasks.map(_.eventsProcessed)),
      "store_gets" -> total(tasks.map(_.storeRef.gets)),
      "store_puts" -> total(tasks.map(_.storeRef.puts)),
      "store_flushes" -> total(tasks.map(_.storeRef.flushes)),
      "store_compactions" -> total(tasks.map(_.storeRef.compactions)),
      "store_segments" -> total(tasks.map(_.storeRef.segmentCount.toLong)),
    )
  }
}
