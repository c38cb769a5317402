package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** Counters read from outside the program around each traced call. */
object Counters {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq

  /** Bytes the calling thread has allocated so far. */
  def allocatedBytes(): Long = threads.getThreadAllocatedBytes(Thread.currentThread.getId)

  /** Total collection time of all collectors so far, in ms. */
  def gcMs(): Long = gcs.map(g => math.max(0L, g.getCollectionTime)).sum
}

/** One traced call. Spans of one operation share `op`; `parent` is the id of
  * the enclosing span, or -1. `points` is the number of data points the
  * call processed, for throughput.
  */
final case class Span(op: Int, id: Int, parent: Int, name: String, startNs: Long, endNs: Long,
                      allocB: Long, gcMs: Long, points: Long) {
  def durNs: Long = endNs - startNs
}

/** Records spans in memory on the calling thread; [[write]] saves them when
  * the run ends.
  */
final class Tracer {
  private val spans = ArrayBuffer.empty[Span]
  private var open = List.empty[Int]
  private var nextId = 0
  private var op = 0

  /** Starts a new operation: the spans that follow share its id. */
  def nextOp(): Unit = op += 1

  def span[A](name: String, points: Long = 0L)(f: => A): A = {
    val id = nextId
    nextId += 1
    val parent = open.headOption.getOrElse(-1)
    open = id :: open
    val a0 = Counters.allocatedBytes()
    val g0 = Counters.gcMs()
    val t0 = System.nanoTime
    try f
    finally {
      val t1 = System.nanoTime
      open = open.tail
      spans += Span(op, id, parent, name, t0, t1, Counters.allocatedBytes() - a0, Counters.gcMs() - g0, points)
    }
  }

  def named(name: String): Seq[Span] = spans.filter(_.name == name).toSeq

  /** A span's duration minus the time its direct children cover. */
  def selfNs: Map[Int, Long] = {
    val childNs = spans.groupBy(_.parent).map { case (p, cs) => p -> cs.map(_.durNs).sum }
    spans.map(s => s.id -> (s.durNs - childNs.getOrElse(s.id, 0L))).toMap
  }

  def write(path: Path): Unit = {
    Files.createDirectories(path.getParent)
    val self = selfNs
    val lines = spans.sortBy(_.id).map { s =>
      s"""{"op": ${s.op}, "id": ${s.id}, "parent": ${s.parent}, "name": "${s.name}", "start_ns": ${s.startNs}, """ +
        s""""end_ns": ${s.endNs}, "self_ns": ${self(s.id)}, "alloc_b": ${s.allocB}, "gc_ms": ${s.gcMs}, "points": ${s.points}}"""
    }
    Files.write(path, lines.asJava, StandardCharsets.UTF_8)
  }
}
