package repro.perfbench

import java.nio.file.{Files, Path}
import scala.collection.mutable

import repro.util.Json

/** Raw outcome of one benchmark run, handed to `run.py` as JSON. The JVM
  * only records: latency samples, scalar measurements, per-layer counters,
  * correctness checks and the run record. All arithmetic over them
  * (percentiles, ratios, span self time) is done by `run.py`.
  */
final class Result(val workload: String) {
  /** Timed operations of the measured phase, in ms, one list per metric. */
  val samples = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]
  /** Scalar measurements (end-to-end values and per-layer counters). */
  val values = mutable.LinkedHashMap.empty[String, Double]
  /** Durations of the repeated set-ups, in s; `setup_s` is their median
    * plus `setupOnceS` (one-off cost: Spark start and warm-up).
    */
  val setupRepsS = mutable.ArrayBuffer.empty[Double]
  var setupOnceS: Double = 0.0
  val record = mutable.LinkedHashMap.empty[String, Any]
  /** (name, passed, detail). A failed check makes the run incorrect. */
  val checks = mutable.ArrayBuffer.empty[(String, Boolean, String)]
  /** Known defects observed in this run: reported, never a gate. */
  val defects = mutable.ArrayBuffer.empty[String]
  var attempted: Long = 0
  var failed: Long = 0

  def sample(name: String, ms: Double): Unit = synchronized {
    samples.getOrElseUpdate(name, mutable.ArrayBuffer.empty) += ms
  }
  def set(name: String, v: Double): Unit = synchronized { values(name) = v }
  def check(name: String, ok: Boolean, detail: => String = ""): Unit = synchronized {
    checks += ((name, ok, if (ok) "" else detail))
  }

  def write(out: Path): Unit = Files.writeString(out, Json.write(Map(
    "workload" -> workload,
    "attempted" -> attempted,
    "failed" -> failed,
    "setup_reps_s" -> setupRepsS.toVector,
    "setup_once_s" -> setupOnceS,
    "samples" -> samples.map { case (k, v) => k -> v.toVector }.toMap,
    "values" -> values.toMap,
    "record" -> record.toMap,
    "checks" -> checks.toVector.map { case (n, ok, d) => Map("name" -> n, "ok" -> ok, "detail" -> d) },
    "defects" -> defects.toVector)))
}
