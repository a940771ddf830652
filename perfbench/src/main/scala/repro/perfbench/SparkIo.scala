package repro.perfbench

import java.util.concurrent.ConcurrentHashMap
import scala.collection.mutable

import org.apache.spark.scheduler._

/** Spark job/task counters per benchmark layer. The layer is the job group
  * the benchmark sets on the calling thread before it calls into the
  * program ("read", "write" or "act"); threads the program starts inherit
  * it. Jobs without a group are counted under "other".
  */
final class SparkIo extends SparkListener {
  private val stageLayer = new ConcurrentHashMap[Int, String]()
  private val totals = mutable.Map.empty[String, Double].withDefaultValue(0.0)
  @volatile private var started = 0L
  @volatile private var ended = 0L

  private def bump(key: String, v: Double): Unit = totals.synchronized { totals(key) += v }

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val group = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
    val layer = group.getOrElse("other")
    e.stageIds.foreach(id => stageLayer.put(id, layer))
    bump(s"$layer.jobs", 1)
    started += 1
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = ended += 1

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val layer = stageLayer.getOrDefault(e.stageId, "other")
    bump(s"$layer.tasks", 1)
    val m = e.taskMetrics
    if (m != null) {
      bump(s"$layer.task_cpu_ms", m.executorCpuTime / 1e6)
      bump(s"$layer.bytes_read", m.inputMetrics.bytesRead.toDouble)
      bump(s"$layer.bytes_written", m.outputMetrics.bytesWritten.toDouble)
    }
  }

  /** Wait until the listener bus has delivered the end of every started job. */
  def drain(timeoutMs: Long = 10000L): Unit = {
    val deadline = System.currentTimeMillis() + timeoutMs
    // The bus delivers a job's task ends before its job end.
    while (ended < started && System.currentTimeMillis() < deadline) Thread.sleep(20)
  }

  def total(layer: String, metric: String): Double = totals.synchronized(totals(s"$layer.$metric"))
  def jobsStarted: Long = started
}
