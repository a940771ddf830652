package repro.exp

import java.nio.file.Files

import org.apache.spark.sql.SparkSession

import repro.core._
import repro.lst.LstCatalog
import repro.workload.CabWorkload

/** Figure-2 analogue: bucketed file-size distribution across a catalog,
  * before vs after compaction (buckets scaled 1:1024 from the paper's
  * production axis, i.e. `<8K … ≥512K` here ≙ `<8M … ≥512M` there).
  */
object FileSizeDistribution {

  /** Figure 2's before/after histograms and the share of files below the
    * paper's small-file line.
    */
  final case class Result(
      before: Vector[(String, Double)],
      after: Vector[(String, Double)],
      pctBefore: Double,
      pctAfter: Double)

  /** 512 KB target ≙ the paper's 512 MB. */
  private val TargetBytes: Long = 512L << 10

  /** Figure 2: a badly tuned initial CAB load over 4 databases (the
    * derived-data pattern of Figure 1), then one hybrid AutoComp pass. The
    * SF is picked so a compacted partition can actually REACH the target.
    * The paper's "small file" line is 128 MB against a 512 MB target — a
    * QUARTER of target — so the headline share uses target/4 here too.
    */
  def run(spark: SparkSession): Result = {
    val catalog = new LstCatalog(Files.createTempDirectory("fig2-"))
    new CabWorkload(nDbs = 4, hours = 1, seed = 11L, months = 8)
      .setup(spark, catalog, initialSf = 0.05, initialLineitemFiles = 10, initialOrdersFiles = 20)
    val before = histogram(catalog, TargetBytes)
    val pctBefore = pctBelowTarget(catalog, TargetBytes / 4)
    val acfg = AutoCompConfig(ScopeStrategy.Hybrid, CompactionConfig(TargetBytes),
      Seq(Filters.MinSmallFiles(2)), Ranker.defaultMoop, Selector.TopK(1000))
    new AutoComp(catalog).runOnce(spark, acfg)
    Result(before, histogram(catalog, TargetBytes), pctBefore,
      pctBelowTarget(catalog, TargetBytes / 4))
  }

  final case class Bucket(label: String, upperBytes: Long)

  /** Log-2 buckets up to and including the target size. */
  def buckets(targetBytes: Long): Vector[Bucket] = {
    val steps = Vector(64, 16, 4, 1) // fractions of target: <T/64, <T/16, <T/4, <T
    steps.map(f => Bucket(s"<target/$f", targetBytes / f)) :+
      Bucket(">=target", Long.MaxValue)
  }

  /** Percentage of live files per bucket (sums to ~100). */
  def histogram(catalog: LstCatalog, targetBytes: Long): Vector[(String, Double)] = {
    val sizes = catalog.allTables.flatMap(r =>
      catalog.table(r).currentSnapshot.files.map(_.sizeBytes))
    val bs = buckets(targetBytes)
    if (sizes.isEmpty) return bs.map(b => b.label -> 0.0)
    val out = Vector.newBuilder[(String, Double)]
    var prevUpper = Long.MinValue
    bs.foreach { b =>
      val n = sizes.count(s => s >= prevUpper && s < b.upperBytes)
      out += b.label -> (100.0 * n / sizes.size)
      prevUpper = b.upperBytes
    }
    out.result()
  }

  /** The paper's headline metric: share of files below the target size. */
  def pctBelowTarget(catalog: LstCatalog, targetBytes: Long): Double = {
    val sizes = catalog.allTables.flatMap(r =>
      catalog.table(r).currentSnapshot.files.map(_.sizeBytes))
    if (sizes.isEmpty) 0.0 else 100.0 * sizes.count(_ < targetBytes) / sizes.size
  }
}
