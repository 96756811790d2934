package repro.core.engine

import repro.core.model.FieldDef
import repro.core.query.{RailgunParser, RailgunQuery}
import repro.core.reservoir.ReservoirConfig
import repro.messaging.{Consumer, MiniKafka, Producer, Record, TopicPartition}

import java.nio.file.Path
import scala.collection.mutable

/** Metadata of a registered stream: its partitioner fields and schema. */
final case class StreamMeta(name: String, partitioners: Seq[String],
                            schema: Vector[FieldDef], partitionsPerTopic: Int) {
  def topicFor(partitioner: String): String = StreamMeta.topic(name, partitioner)
  def topics: Seq[String] = partitioners.map(topicFor)
}
object StreamMeta {
  def topic(stream: String, partitioner: String): String = s"$stream.$partitioner"
}

/** A processor unit (§3.2, Algorithm 1): a single-threaded worker owning a
  * set of task processors, one per assigned (topic, partition). It has two
  * consumers — one in the shared active consumer group (exactly-one-owner
  * guarantee) and one manually assigned for replica tasks — plus an ops
  * consumer for broadcast operational requests.
  *
  * `runOnce()` is one iteration of the logical loop; the cluster drives it
  * deterministically in tests and benches.
  */
final class ProcessorUnit(val unitId: String,
                          val nodeId: String,
                          kafka: MiniKafka,
                          baseDir: Path,
                          reservoirConfig: ReservoirConfig,
                          replyTopic: String,
                          activeGroup: String,
                          opsTopic: String) {

  val activeConsumer: Consumer = kafka.consumer(activeGroup, unitId, nodeId)
  val replicaConsumer: Consumer = kafka.consumer(s"replica-$unitId", s"$unitId-r", nodeId)
  private val opsConsumer: Consumer = kafka.consumer(s"ops-$unitId", s"$unitId-ops", nodeId)
  opsConsumer.assign(Set(TopicPartition(opsTopic, 0)))
  private val producer: Producer = kafka.producer()

  /** Live task processors, active or replica. */
  val taskProcessors = mutable.HashMap.empty[TopicPartition, TaskProcessor]
  /** Task processors that lost their assignment but keep data ("stale"). */
  val staleProcessors = mutable.HashMap.empty[TopicPartition, TaskProcessor]

  private val streams = mutable.HashMap.empty[String, StreamMeta]
  private val queries = mutable.LinkedHashMap.empty[String, RailgunQuery]

  var messagesProcessed: Long = 0L
  var repliesSent: Long = 0L
  var checkpointEveryEvents: Long = 512L
  private var sinceCheckpoint: Long = 0L

  // promote an already-materialized task processor without reprocessing:
  // on (re)gaining a partition, resume from the last applied offset
  activeConsumer.onRebalance { (_, added) =>
    added.foreach { tp =>
      (taskProcessors.get(tp) orElse staleProcessors.get(tp)).foreach { proc =>
        activeConsumer.seek(tp, proc.lastOffset + 1)
      }
    }
  }

  def registerStream(meta: StreamMeta): Unit = streams(meta.name) = meta

  private def streamOfTopic(topic: String): StreamMeta =
    streams.values.find(_.topics.contains(topic)).getOrElse(
      throw new NoSuchElementException(s"no stream registered for topic $topic"))

  /** The topics this unit's active consumer should subscribe to. */
  def resubscribe(): Unit =
    activeConsumer.subscribe(streams.values.flatMap(_.topics).toSet)

  private def ensureProcessor(tp: TopicPartition): TaskProcessor =
    taskProcessors.getOrElseUpdate(tp, {
      staleProcessors.remove(tp).getOrElse {
        val meta = streamOfTopic(tp.topic)
        val proc = new TaskProcessor(tp, taskDir(tp), reservoirConfig, meta.schema)
        queries.values.filter(q => StreamMeta.topic(q.stream, q.partitioner) == tp.topic)
          .foreach(proc.addQuery)
        proc
      }
    })

  def taskDir(tp: TopicPartition): Path =
    baseDir.resolve(unitId).resolve(s"${tp.topic}-${tp.partition}")

  /** One iteration of Algorithm 1. Returns the number of event messages
    * processed (0 = idle).
    */
  def runOnce(maxPerPoll: Int = 256): Int = {
    // 1. operational requests (add/remove streams and metrics)
    opsConsumer.poll(100).foreach(applyOp)
    // 2.-3. poll active then replica tasks (actives prioritized)
    val activeMessages = activeConsumer.poll(maxPerPoll)
    val replicaMessages = replicaConsumer.poll(maxPerPoll)
    // 4. process and reply (replies only for active tasks)
    var n = 0
    def handle(rec: Record, isActive: Boolean): Unit = {
      val tp = TopicPartition(rec.topic, rec.partition)
      val proc = ensureProcessor(tp)
      val results = proc.processRecord(rec)
      messagesProcessed += 1
      sinceCheckpoint += 1
      n += 1
      if (isActive) {
        val reply = Codecs.Reply(Codecs.eventFromBytes(rec.value).id, rec.topic, results)
        producer.send(replyTopic, reply.eventId.toString, Codecs.replyToBytes(reply), rec.timestamp)
        repliesSent += 1
        activeConsumer.commit(tp, rec.offset + 1)
      }
    }
    activeMessages.foreach(handle(_, isActive = true))
    replicaMessages.foreach(handle(_, isActive = false))
    if (sinceCheckpoint >= checkpointEveryEvents) { checkpointAll(); sinceCheckpoint = 0 }
    n
  }

  private def applyOp(rec: Record): Unit = {
    val text = new String(rec.value, "UTF-8")
    val parts = text.split('\u0001')
    parts(0) match {
      case "ADDQ" =>
        val q = RailgunParser.parse(parts(2), parts(1))
        queries(q.name) = q
        val topic = StreamMeta.topic(q.stream, q.partitioner)
        taskProcessors.foreach { case (tp, proc) => if (tp.topic == topic) proc.addQuery(q) }
      case "DELQ" =>
        queries.remove(parts(1))
        taskProcessors.values.foreach(_.removeQuery(parts(1)))
      case other => throw new IllegalArgumentException(s"unknown op '$other'")
    }
  }

  /** Checkpoints every live task processor (offsets recorded inside). */
  def checkpointAll(): Unit = taskProcessors.values.foreach(_.checkpoint())

  /** Applies a replica-task plan for this unit: seeks new tasks, demotes
    * removed ones to stale (data leftovers retained).
    */
  def applyReplicaAssignment(tasks: Set[TopicPartition]): Unit = {
    val current = replicaConsumer.assignment
    val activeTasks = activeConsumer.assignment
    val removed = current -- tasks
    replicaConsumer.assign(tasks)
    tasks.foreach { tp =>
      (taskProcessors.get(tp) orElse staleProcessors.get(tp)).foreach { proc =>
        replicaConsumer.seek(tp, proc.lastOffset + 1)
      }
    }
    removed.foreach { tp =>
      if (!activeTasks.contains(tp))
        taskProcessors.remove(tp).foreach(p => staleProcessors(tp) = p)
    }
  }

  /** Demotes task processors that are neither active nor replica to stale. */
  def demoteUnassigned(): Unit = {
    val owned = activeConsumer.assignment ++ replicaConsumer.assignment
    val toDemote = taskProcessors.keySet.toSet -- owned
    toDemote.foreach { tp =>
      taskProcessors.remove(tp).foreach(p => staleProcessors(tp) = p)
    }
  }

  def close(): Unit = {
    activeConsumer.close()
    replicaConsumer.close()
    opsConsumer.close()
    (taskProcessors.values ++ staleProcessors.values).foreach(_.close())
  }
}
