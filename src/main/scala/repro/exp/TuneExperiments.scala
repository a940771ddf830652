package repro.exp

import repro.tune.{TuneResult, Tuner, WorkloadModel}

/** The §6.3 trigger auto-tuning runs (Figure 9): one seeded tuner, 25
  * iterations, over the four workload/trait rows the paper plots. No Spark
  * needed — the workloads run on the calibrated analytic model (DESIGN.md).
  */
object TuneExperiments {

  /** One Figure-9 row: the workload and trait tuned, and the paper's
    * observation printed beside it.
    */
  final case class Row(label: String, workload: WorkloadModel, traitName: String,
                       paperNote: String)

  val Seed = 2024L
  val Iterations = 25

  val wp1Count: Row = Row("wp1/smallFileCount", WorkloadModel.wp1, "smallFileCount",
    "paper: up to 2x gain when tables get too fragmented")
  val tpchCount: Row = Row("tpch/smallFileCount", WorkloadModel.tpch, "smallFileCount",
    "paper: default setting performs best; whole-table rewrites too costly")
  val wp1Entropy: Row = Row("wp1/fileEntropy", WorkloadModel.wp1, "fileEntropy",
    "paper: comparable query performance to the small-file-count trigger")
  val wp3Count: Row = Row("wp3/smallFileCount", WorkloadModel.wp3, "smallFileCount",
    "paper: decoupled clusters see consistent benefits from compaction")

  val rows: Vector[Row] = Vector(wp1Count, tpchCount, wp1Entropy, wp3Count)

  def run(row: Row): Vector[TuneResult] =
    new Tuner(Seed).optimize(row.workload, row.traitName, Iterations)

  def report(row: Row, results: Vector[TuneResult]): String =
    Reports.fig9(row.label, row.paperNote, results)
}
