package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.nio.file.{Files, Path}
import java.security.MessageDigest
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.SparkSession

/** Everything a workload needs from the command line and the harness. */
final case class Ctx(
    workload: String,
    seed: Long,
    seconds: Int,
    tracer: Tracer,
    res: Result,
    runDir: Path,
    nproc: Int) {
  def traced: Boolean = tracer.enabled
}

/** Benchmark entrypoint, started by `run.py`:
  * `Main --workload <cab|plan|fleet> --seed <n> --seconds <s> --trace <0|1> --run-dir <dir>`.
  * Writes `result.json` (and `spans.jsonl` when traced) into the run
  * directory; `run.py` turns them into the printed metrics.
  */
object Main {
  val workloads: Map[String, Ctx => Unit] =
    Map("cab" -> CabBench.run, "plan" -> PlanBench.run, "fleet" -> FleetBench.run)

  def main(argv: Array[String]): Unit = {
    val opts = argv.grouped(2).collect { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val workload = opts("workload")
    require(workloads.contains(workload), s"unknown workload $workload")
    val runDir = Path.of(opts("run-dir")).toAbsolutePath
    val ctx = Ctx(workload, opts("seed").toLong, opts("seconds").toInt,
      new Tracer(opts("trace") == "1"), new Result(workload), runDir,
      Runtime.getRuntime.availableProcessors())
    ctx.res.record ++= Seq(
      "workload" -> workload, "seed" -> ctx.seed, "seconds" -> ctx.seconds,
      "trace" -> ctx.traced, "nproc" -> ctx.nproc,
      "heap_max_mb" -> Runtime.getRuntime.maxMemory / (1 << 20),
      "java" -> System.getProperty("java.version"))
    val code =
      try {
        workloads(workload)(ctx)
        ctx.res.write(runDir.resolve("result.json"))
        if (ctx.traced) ctx.tracer.writeJsonLines(runDir.resolve("spans.jsonl"))
        0
      } catch {
        case t: Throwable => t.printStackTrace(); 1
      }
    // Spark leaves non-daemon threads behind; end the JVM explicitly.
    System.exit(code)
  }
}

/** Helpers shared by the workloads. */
object Bench {
  def nowMs(t0: Long): Double = (System.nanoTime() - t0) / 1e6

  /** Run `body` and return its result with its wall time in ms. */
  def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, nowMs(t0))
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** Local Spark with the repository's test settings (shuffle partitions,
    * no broadcast joins); all scratch space stays inside the run directory.
    */
  def startSpark(ctx: Ctx): SparkSession = {
    val local = Files.createDirectories(ctx.runDir.resolve("spark-local"))
    val s = SparkSession.builder()
      .master(s"local[${ctx.nproc}]")
      .appName(s"perfbench-${ctx.workload}")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", local.toString)
      .config("spark.sql.warehouse.dir", ctx.runDir.resolve("warehouse").toString)
      .config("spark.sql.shuffle.partitions", "4")
      .config("spark.sql.adaptive.enabled", "false")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    ctx.res.record("spark_version") = s.version
    s
  }

  def deleteTree(p: Path): Unit =
    if (Files.exists(p))
      Files.walk(p).iterator.asScala.toVector.reverse.foreach(Files.deleteIfExists(_))

  /** Total size of the regular files under `root` whose path passes `keep`. */
  def treeBytes(root: Path, keep: Path => Boolean = _ => true): Long =
    Files.walk(root).iterator.asScala
      .filter(p => Files.isRegularFile(p) && keep(p)).map(Files.size(_)).sum

  /** Bytes under every `meta/` directory below `root`, in MB (10^6 bytes). */
  def metadataMb(root: Path): Double =
    treeBytes(root, _.getParent.getFileName.toString == "meta") / 1e6

  def sha256(lines: Iterator[String]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    lines.foreach(l => md.update((l + "\n").getBytes("UTF-8")))
    md.digest().map(b => f"$b%02x").mkString
  }

  /** Heap peak and GC time over the measured phase. */
  final class JvmWindow {
    private val heapPools =
      ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP)
    private def gcMs: Long =
      ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum
    heapPools.foreach(_.resetPeakUsage())
    private val gc0 = gcMs

    def finish(res: Result): Unit = {
      res.set("jvm.heap_peak_mb", heapPools.map(_.getPeakUsage.getUsed).sum / 1048576.0)
      res.set("jvm.gc_ms", (gcMs - gc0).toDouble)
    }
  }
}
