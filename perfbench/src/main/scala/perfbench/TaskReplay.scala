package perfbench

import repro.core.engine.{Codecs, TaskProcessor}
import repro.core.model.Event
import repro.core.plan.TaskPlan
import repro.core.query.RailgunParser
import repro.core.reservoir.{EventReservoir, SchemaRegistry}
import repro.core.statestore.LsmStore
import repro.messaging.{MiniKafka, Record, TopicPartition}
import repro.spark.Payments

import java.io.{BufferedOutputStream, DataOutputStream, FileOutputStream}
import java.nio.file.Path
import scala.collection.mutable

/** Task-level part of the traced run: one task's share of the run's input is
  * replayed through each layer's public API with a span around every call,
  * and once more through a real `TaskProcessor`, so the layer spans can be
  * compared with the call they make up.
  */
object TaskReplay {

  def run(w: Workload, events: Array[Event], checkpointEvery: Long, dir: Path): Map[String, Double] = {
    val tr = new Trace
    val key = w.partitioners.head
    val tp = TopicPartition(s"payments.$key", 0)
    val queries = w.queries.filter(_.key == key).map(q => RailgunParser.parse(q.sql, q.name))

    // messaging and event codec: the front end's encode and send, then the
    // task's poll
    val kafka = new MiniKafka
    kafka.createTopic(tp.topic, w.partitions)
    val producer = kafka.producer()
    val sEncode = tr.span("codec.event_encode")
    val sSend = tr.span("kafka.send")
    var eventBytes = 0L
    events.foreach { e =>
      val bytes = tr.time(sEncode)(Codecs.eventToBytes(e))
      eventBytes += bytes.length
      tr.time(sSend)(producer.send(tp.topic, e.str(key), bytes, e.ts))
    }
    val consumer = kafka.consumer("replay", "replay-0")
    consumer.assign(Set(tp))
    val sPoll = tr.span("kafka.poll")
    val records = mutable.ArrayBuffer.empty[Record]
    var batch = tr.time(sPoll)(consumer.poll(256))
    while (batch.nonEmpty) {
      records ++= batch
      batch = tr.time(sPoll)(consumer.poll(256))
    }
    val n = records.size

    // The real call and the same work layer by layer, interleaved record by
    // record so both see the same host and heap state.
    val sProcess = tr.span("task.process_record")
    val sCheckpoint = tr.span("task.checkpoint", keepSamples = true)
    val sDecode = tr.span("codec.event_decode")
    val sAppend = tr.span("reservoir.append")
    val sOnEvent = tr.span("plan.on_event")
    val sReplyEncode = tr.span("codec.reply_encode")
    val sReplyDecode = tr.span("codec.reply_decode")
    val sResCheckpoint = tr.span("reservoir.checkpoint")
    val sFlush = tr.span("plan.flush_state")
    val sStoreCheckpoint = tr.span("store.checkpoint")
    val proc = new TaskProcessor(tp, dir.resolve("task"), w.reservoir, Payments.schemaFields)
    queries.foreach(proc.addQuery)
    val registry = new SchemaRegistry
    registry.register(Payments.schemaFields)
    val layerDir = dir.resolve("layers")
    val reservoir = new EventReservoir(layerDir.resolve("reservoir"), w.reservoir, registry)
    val store = new LsmStore(layerDir.resolve("state"))
    val plan = new TaskPlan(queries, reservoir, store)
    val decoded = new Array[Event](n)
    var replyBytes = 0L
    records.zipWithIndex.foreach { case (rec, i) =>
      tr.time(sProcess)(proc.processRecord(rec))
      val e = tr.time(sDecode)(Codecs.eventFromBytes(rec.value))
      decoded(i) = e
      tr.time(sAppend)(reservoir.append(e))
      val results = tr.time(sOnEvent)(plan.onEvent(e))
      val reply = tr.time(sReplyEncode)(Codecs.replyToBytes(Codecs.Reply(e.id, tp.topic, results)))
      replyBytes += reply.length
      tr.time(sReplyDecode)(Codecs.replyFromBytes(reply))
      if ((i + 1) % checkpointEvery == 0) {
        tr.time(sCheckpoint)(proc.checkpoint())
        // TaskProcessor.checkpoint's steps, each in its own span
        val out = new DataOutputStream(new BufferedOutputStream(
          new FileOutputStream(layerDir.resolve("checkpoint.bin").toFile)))
        try {
          out.writeLong(rec.offset)
          out.writeLong(i + 1L)
          tr.time(sResCheckpoint)(reservoir.checkpoint(out))
          tr.time(sFlush)(plan.flushState())
          tr.time(sStoreCheckpoint)(store.checkpoint(out))
        } finally out.close()
      }
    }
    proc.close()
    reservoir.close()

    // iterator advance alone, at the plan's offsets, over its own reservoir
    val sAdvance = tr.span("reservoir.advance")
    val advRes = new EventReservoir(dir.resolve("advance"), w.reservoir, registry)
    val offsets = queries.flatMap(_.window.iteratorOffsets).distinct.sorted.toArray
    val iterators = offsets.map(_ => advRes.iterator())
    decoded.foreach { e =>
      advRes.append(e)
      val t0 = System.nanoTime()
      var k = 0
      while (k < offsets.length) { iterators(k).advanceTo(e.ts + 1 - offsets(k)); k += 1 }
      sAdvance.add(System.nanoTime() - t0)
    }
    advRes.close()

    val layerNs = tr.totalNs("codec.event_decode", "reservoir.append", "plan.on_event",
      "reservoir.checkpoint", "plan.flush_state", "store.checkpoint")
    val realNs = tr.totalNs("task.process_record", "task.checkpoint")
    val perEvent = (x: Double) => if (n == 0) 0.0 else x / n
    Map(
      "task.process_record_us" -> sProcess.meanUs,
      "task.checkpoint_ms" -> sCheckpoint.meanUs / 1e3,
      "task.checkpoint_p99_ms" -> sCheckpoint.percentileMs(99.0),
      "task.span_coverage" -> (if (realNs == 0) 0.0 else layerNs.toDouble / realNs),
      "task.replay_events" -> n.toDouble,
      "codec.event_encode_us" -> sEncode.meanUs,
      "codec.event_decode_us" -> sDecode.meanUs,
      "codec.reply_encode_us" -> sReplyEncode.meanUs,
      "codec.reply_decode_us" -> sReplyDecode.meanUs,
      "codec.event_bytes" -> eventBytes.toDouble / math.max(1, events.length),
      "codec.reply_bytes" -> perEvent(replyBytes.toDouble),
      "kafka.send_us" -> sSend.meanUs,
      "kafka.poll_us_per_record" -> perEvent(sPoll.totalNs / 1e3),
      "reservoir.append_us" -> sAppend.meanUs,
      "reservoir.advance_us" -> sAdvance.meanUs,
      "plan.on_event_us" -> sOnEvent.meanUs,
      "plan.updates_per_event" -> perEvent((plan.insertsApplied + plan.evictsApplied).toDouble),
      "plan.state_flush_ms" -> sFlush.meanUs / 1e3,
      "store.checkpoint_ms" -> sStoreCheckpoint.meanUs / 1e3,
    )
  }
}
