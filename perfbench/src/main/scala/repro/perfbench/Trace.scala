package repro.perfbench

import java.nio.file.{Files, Path}
import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicLong
import scala.jdk.CollectionConverters._

import repro.util.Json

/** One recorded span: a timed call into a layer. `parent` is 0 for a root
  * span; `counts` holds the work the call did (files, candidates, bytes).
  */
final case class Span(id: Long, parent: Long, name: String, startNs: Long, endNs: Long,
                      counts: Map[String, Double])

/** Handle a span body uses to attach counts to its own span. */
final class SpanCounts {
  private[perfbench] var counts = Map.empty[String, Double]
  def add(key: String, v: Double): Unit = counts = counts.updated(key, counts.getOrElse(key, 0.0) + v)
}

/** In-memory span recorder. Spans are kept in memory and written out once,
  * when the run ends. The parent of a span is the innermost open span on the
  * same thread, or the span handed over with [[under]] when work moves to
  * another thread. Spans are recorded only between [[start]] and the end of
  * the run, so set-up and warm-up leave none; otherwise [[span]] only runs
  * its body.
  */
final class Tracer(val enabled: Boolean) {
  @volatile private var recording = false
  def start(): Unit = recording = enabled

  private val spans = new ConcurrentLinkedQueue[Span]()
  private val ids = new AtomicLong(0)
  private val open = ThreadLocal.withInitial[List[Long]](() => Nil)

  /** Id of the innermost open span on this thread (0 if none). */
  def currentId: Long = open.get.headOption.getOrElse(0L)

  def span[A](name: String)(body: SpanCounts => A): A = {
    if (!recording) return body(new SpanCounts)
    val id = ids.incrementAndGet()
    val parent = currentId
    val c = new SpanCounts
    open.set(id :: open.get)
    val t0 = System.nanoTime()
    try body(c)
    finally {
      val t1 = System.nanoTime()
      open.set(open.get.tail)
      spans.add(Span(id, parent, name, t0, t1, c.counts))
    }
  }

  /** Run `body` with `parentId` as the open span of this thread. */
  def under[A](parentId: Long)(body: => A): A = {
    if (!recording) return body
    val saved = open.get
    open.set(if (parentId == 0L) Nil else List(parentId))
    try body finally open.set(saved)
  }

  /** Record a span whose interval the caller measured itself. */
  def record(name: String, startNs: Long, endNs: Long, counts: Map[String, Double] = Map.empty): Unit =
    if (recording) spans.add(Span(ids.incrementAndGet(), currentId, name, startNs, endNs, counts))

  def recorded: Vector[Span] = spans.asScala.toVector.sortBy(_.id)

  /** Write the spans as JSON lines, times in ns relative to the first span. */
  def writeJsonLines(out: Path): Unit = {
    val all = recorded
    val t0 = if (all.isEmpty) 0L else all.map(_.startNs).min
    Files.write(out, all.map(s => Json.write(Map("id" -> s.id, "parent" -> s.parent,
      "name" -> s.name, "start" -> (s.startNs - t0), "end" -> (s.endNs - t0),
      "counts" -> s.counts))).asJava)
  }
}
