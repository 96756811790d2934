package perfbench

import repro.core.engine.{ProcessorUnit, RailgunCluster, StreamMeta}
import repro.core.model.Event
import repro.messaging.MiniKafka
import repro.spark.Payments

import java.nio.file.Path
import scala.collection.mutable

/** Per-event bookkeeping of one deployment, allocated before set-up so it is
  * not counted in the program's heap.
  */
final class Ledger(val events: Array[Event]) {
  val dueNs = new Array[Long](events.length)
  val doneNs = new Array[Long](events.length)
  val done = new Array[Boolean](events.length)
  val lateNs = new Array[Long](events.length)
}

/** Result of the fixed-rate phase. */
final case class FixedRate(latencyMs: Array[Double], lateMs: Array[Double],
                           backlogEnd: Int, backlogMax: Int, wallNs: Long,
                           spinNs: Long, gcMs: Long, allocBytes: Long,
                           recoveryMs: Seq[Double], lagMax: Long)

/** One Railgun deployment over MiniKafka, driven by a single thread: the
  * thread publishes through the front end, steps every processor unit with
  * `runOnce` and collects complete answers, checking each against the
  * reference. With a [[Trace]], every call into the program is wrapped in a
  * span; without one, the loop makes no extra calls.
  */
final class ClusterRun(w: Workload, ledger: Ledger, ref: Reference, dir: Path, trace: Option[Trace]) {

  import ClusterRun._

  private val events = ledger.events
  val kafka = new MiniKafka
  val cluster = new RailgunCluster(kafka, dir, w.rf, w.reservoir)
  private val fe = cluster.frontEnd
  private val liveNodes = mutable.Queue.empty[String]
  private var nodesMade = 0
  /** Every unit started and not yet closed, failed ones included (their
    * files stay on disk).
    */
  val everyUnit = mutable.ArrayBuffer.empty[ProcessorUnit]
  private var units: Array[ProcessorUnit] = Array.empty

  private val tr = trace.orNull
  private val sPublish = trace.map(_.span("front_end.publish")).orNull
  private val sRunOnce = trace.map(_.span("unit.run_once")).orNull
  /** run_once calls that handled at least one message. */
  private val sRunOnceBusy = trace.map(_.span("unit.run_once_busy", keepSamples = true)).orNull
  private val sPoll = trace.map(_.span("front_end.poll_replies")).orNull
  private val sTake = trace.map(_.span("front_end.take_completed")).orNull
  private val sFail = trace.map(_.span("cluster.fail_node")).orNull
  private val sAdd = trace.map(_.span("cluster.add_node")).orNull
  private val sCatchup = trace.map(_.span("cluster.catchup")).orNull
  /** Mirror of each unit's messages since its last checkpoint (public
    * `messagesProcessed` and `checkpointEveryEvents`), to count checkpoints.
    */
  private val sinceCheckpoint = mutable.HashMap.empty[ProcessorUnit, Long]
  var taskCheckpoints: Long = 0L

  var published = 0
  private var head = 0
  var answered = 0
  var failures = 0
  var missing = 0
  var firstFailure: Option[String] = None

  private def addNode(): Seq[ProcessorUnit] = {
    val id = s"node$nodesMade"
    nodesMade += 1
    val before = cluster.allUnits.toSet
    cluster.addNode(id, w.unitsPerNode)
    liveNodes.enqueue(id)
    units = cluster.allUnits.toArray
    val fresh = units.filterNot(before.contains).toSeq
    everyUnit ++= fresh
    fresh
  }

  (0 until w.nodes).foreach(_ => addNode())
  cluster.registerStream(StreamMeta("payments", w.partitioners, Payments.schemaFields, w.partitions))
  w.queries.foreach(q => cluster.addQuery(q.name, q.sql))

  // ---- the loop ---------------------------------------------------------------

  private def publish(i: Int): Unit = {
    if (tr == null) fe.publish("payments", events(i))
    else tr.time(sPublish)(fe.publish("payments", events(i)))
    published += 1
  }

  private def runUnits(): Int = {
    var work = 0
    var k = 0
    while (k < units.length) {
      val u = units(k)
      if (tr == null) work += u.runOnce()
      else {
        val before = u.messagesProcessed
        val t0 = System.nanoTime()
        val n = u.runOnce()
        val ns = System.nanoTime() - t0
        sRunOnce.add(ns)
        if (n > 0) sRunOnceBusy.add(ns)
        work += n
        val since = sinceCheckpoint.getOrElse(u, 0L) + (u.messagesProcessed - before)
        if (since >= u.checkpointEveryEvents) {
          taskCheckpoints += u.taskProcessors.size
          sinceCheckpoint(u) = 0L
        } else sinceCheckpoint(u) = since
      }
      k += 1
    }
    work
  }

  /** Drains the reply topic and takes every newly complete answer. */
  private def collect(): Int = {
    val before = fe.pendingCount
    if (tr == null) fe.pollReplies() else tr.time(sPoll)(fe.pollReplies())
    val completed = before - fe.pendingCount
    if (completed > 0) {
      val t0 = System.nanoTime()
      var toFind = completed
      var j = head
      while (toFind > 0 && j < published) {
        if (!ledger.done(j)) fe.takeCompleted(events(j).id) match {
          case Some(results) =>
            ledger.done(j) = true
            ledger.doneNs(j) = t0
            answered += 1
            toFind -= 1
            ref.check(j, results).foreach(fail)
          case None =>
        }
        j += 1
      }
      while (head < published && ledger.done(head)) head += 1
      if (tr != null) sTake.add(System.nanoTime() - t0)
    }
    completed
  }

  private def fail(msg: String): Unit = {
    failures += 1
    if (firstFailure.isEmpty) firstFailure = Some(msg)
  }

  private def step(): Int = runUnits() + collect()

  /** Steps until events before `until` are answered or nothing moves for
    * [[StallNs]]; events still unanswered then count as missing.
    */
  private def drain(until: Int): Unit = {
    var lastProgress = System.nanoTime()
    while (head < until && System.nanoTime() - lastProgress < StallNs) {
      if (step() > 0) lastProgress = System.nanoTime()
    }
    while (head < until) {
      if (!ledger.done(head)) {
        ledger.done(head) = true
        missing += 1
        fail(s"event ${events(head).id}: no complete answer")
      }
      head += 1
    }
  }

  /** Offers events [from, until) at once and steps until all are answered;
    * returns the wall time from the first publish to the last answer.
    */
  def offerAtOnce(from: Int, until: Int): Long = {
    val t0 = System.nanoTime()
    var k = from
    while (k < until) { ledger.dueNs(k) = t0; publish(k); k += 1 }
    drain(until)
    var last = t0
    k = from
    while (k < until) { last = math.max(last, ledger.doneNs(k)); k += 1 }
    last - t0
  }

  /** Publishes events [from, until) each at its due time on an open-loop
    * schedule at the workload's rate, stepping the cluster in between.
    * Latency runs from the due time, so a stall also delays the events that
    * fall due during it.
    */
  def fixedRate(from: Int, until: Int): FixedRate = {
    val periodNs = 1e9 / w.rate
    val t0 = System.nanoTime() + 1000000L
    var k = from
    while (k < until) { ledger.dueNs(k) = t0 + math.round((k - from) * periodNs); k += 1 }
    var backlogEnd = -1
    var backlogMax = 0
    var spinNs = 0L
    var lastFailAt = -1
    var recoveryStart = 0L
    var recoveryBoundary = -1
    val recoveries = mutable.ArrayBuffer.empty[Double]
    var catchupUnits: Seq[ProcessorUnit] = Nil
    var catchupStart = 0L
    var lagMax = 0L
    var nextLagSample = t0
    val gc0 = Stats.gcMs()
    val alloc0 = Stats.threadAllocatedBytes()
    val wall0 = System.nanoTime()

    var lastProgress = wall0
    while (published < until || (head < until && System.nanoTime() - lastProgress < StallNs)) {
      var now = System.nanoTime()
      var pubs = 0
      while (published < until && ledger.dueNs(published) <= now) {
        if (w.failEvery > 0 && published > from && (published - from) % w.failEvery == 0 &&
            lastFailAt != published) {
          lastFailAt = published
          recoveryStart = System.nanoTime()
          recoveryBoundary = published
          failOldestNode()
          catchupUnits = addNodeTimed()
          catchupStart = System.nanoTime()
          now = catchupStart
        }
        ledger.lateNs(published) = now - ledger.dueNs(published)
        publish(published)
        pubs += 1
      }
      // events handed to the front end and not yet answered: the queue a
      // stall leaves behind
      val queued = published - answered - missing
      if (queued > backlogMax) backlogMax = queued
      if (tr != null && now >= nextLagSample) {
        lagMax = math.max(lagMax, consumerLag())
        nextLagSample = now + 10000000L
      }
      val work = step()
      now = System.nanoTime()
      if (published == until && backlogEnd < 0) backlogEnd = published - answered - missing
      if (recoveryBoundary >= 0 && head >= recoveryBoundary) {
        recoveries += (now - recoveryStart) / 1e6
        recoveryBoundary = -1
      }
      if (tr != null) {
        if (catchupUnits.nonEmpty && caughtUp(catchupUnits)) {
          sCatchup.add(now - catchupStart)
          catchupUnits = Nil
        }
      }
      if (work > 0 || pubs > 0) lastProgress = now
      else if (published < until) {
        val due = ledger.dueNs(published)
        while (System.nanoTime() < due) Thread.onSpinWait()
        spinNs += System.nanoTime() - now
        lastProgress = System.nanoTime()
      }
    }
    val wallNs = System.nanoTime() - wall0
    val gcMs = Stats.gcMs() - gc0
    val allocBytes = Stats.threadAllocatedBytes() - alloc0
    drain(until)
    val lat = mutable.ArrayBuilder.make[Double]
    val late = new Array[Double](until - from)
    k = from
    while (k < until) {
      if (ledger.doneNs(k) > 0) lat += (ledger.doneNs(k) - ledger.dueNs(k)) / 1e6
      late(k - from) = ledger.lateNs(k) / 1e6
      k += 1
    }
    FixedRate(lat.result(), late, math.max(0, backlogEnd), backlogMax, wallNs, spinNs,
      gcMs, allocBytes, recoveries.toSeq, lagMax)
  }

  private def failOldestNode(): Unit = {
    val victim = liveNodes.dequeue()
    if (tr == null) cluster.failNode(victim) else tr.time(sFail)(cluster.failNode(victim))
    units = cluster.allUnits.toArray
  }

  private def addNodeTimed(): Seq[ProcessorUnit] =
    if (tr == null) addNode() else tr.time(sAdd)(addNode())

  /** True once every task of `us` has consumed its partition to the end. */
  private def caughtUp(us: Seq[ProcessorUnit]): Boolean = us.forall { u =>
    u.activeConsumer.assignment.forall(tp => u.activeConsumer.position(tp) >= kafka.endOffset(tp)) &&
      u.replicaConsumer.assignment.forall(tp => u.replicaConsumer.position(tp) >= kafka.endOffset(tp))
  }

  /** Largest backlog, in records, of any active or replica consumer. */
  private def consumerLag(): Long = units.iterator.flatMap { u =>
    u.activeConsumer.assignment.iterator.map(tp => kafka.endOffset(tp) - u.activeConsumer.position(tp)) ++
      u.replicaConsumer.assignment.iterator.map(tp => kafka.endOffset(tp) - u.replicaConsumer.position(tp))
  }.foldLeft(0L)(math.max)

  def liveUnits: Seq[ProcessorUnit] = units.toSeq

  /** Waits for every reservoir's asynchronous chunk writes, so the files on
    * disk are complete.
    */
  def drainIo(): Unit = everyUnit.foreach { u =>
    (u.taskProcessors.values ++ u.staleProcessors.values).foreach(_.reservoirRef.drainIo())
  }

  /** Closes the units of failed nodes and forgets them. The cluster holds no
    * reference to them after `failNode`, so the heap measured afterwards is
    * only what the program itself keeps.
    */
  def closeFailedUnits(): Unit = {
    val failed = everyUnit.filterNot(units.contains)
    failed.foreach(_.close())
    everyUnit --= failed
  }

  def close(): Unit = everyUnit.foreach(_.close())
}

object ClusterRun {
  /** No progress for this long ends a phase; what is unanswered is missing. */
  val StallNs: Long = 10L * 1000 * 1000 * 1000
}
