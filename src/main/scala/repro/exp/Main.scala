package repro.exp

import scala.collection.immutable.ListMap

import org.apache.spark.sql.SparkSession

/** Command-line entrypoint printing one paper artifact:
  * `repro.exp.Main <artifact> [small]`, with the bench suite's parameters.
  * `small` runs the CAB sweep (table1, fig6–fig8) at smoke scale; the
  * other artifacts have a single scale and ignore it. The class is a
  * plain `main`, so it also works under `spark-submit`.
  */
object Main {

  private def withSpark(appName: String)(body: SparkSession => String): String = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(appName)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", value = false)
      .getOrCreate()
    try body(spark) finally spark.stop()
  }

  /** Table 1 and Figs 6–8 are views over the same §6 CAB sweep. */
  private def cab(view: Vector[CabExperiment.StrategyResult] => String)(small: Boolean): String =
    withSpark("cab") { spark =>
      view(CabExperiment.runAll(spark, if (small) CabExperiment.small else CabExperiment.Params()))
    }

  /** Artifact name → report printer, given the `small` flag. */
  private val artifacts: ListMap[String, Boolean => String] = ListMap(
    "table1" -> cab(Reports.table1),
    "fig2" -> (_ => withSpark("fig2") { spark =>
      val r = FileSizeDistribution.run(spark)
      Reports.fig2(r.before, r.after, r.pctBefore, r.pctAfter)
    }),
    "fig3" -> (_ => withSpark("fig3") { spark =>
      Reports.fig3(MaintenanceExperiment.run(spark, MaintenanceExperiment.Params()))
    }),
    "fig6" -> cab(Reports.fig6),
    "fig7" -> cab(Reports.fig7),
    "fig8" -> cab(Reports.fig8),
    "fig9" -> (_ => TuneExperiments.rows.map(r => TuneExperiments.report(r, TuneExperiments.run(r)))
      .mkString("\n")),
    "fig10" -> (_ => Vector(
      Reports.fig10a(FleetExperiments.runFig10a()),
      Reports.fig10b(FleetExperiments.runFig10b()),
      Reports.fig10c(FleetExperiments.runFig10c())).mkString("\n")),
    "fig11" -> (_ => Vector(
      Reports.fig11a(FleetExperiments.runFig11a()),
      Reports.fig11b(FleetExperiments.runFig11b(), daysPerMonth = 30)).mkString("\n")))

  val usage: String = s"usage: repro.exp.Main <${artifacts.keys.mkString("|")}> [small]"

  /** The printer of the artifact `args` name, not yet run, or the usage
    * text when they name none.
    */
  def parse(args: Seq[String]): Either[String, () => String] =
    (args.headOption.flatMap(artifacts.get), args.drop(1)) match {
      case (Some(report), Seq())        => Right(() => report(false))
      case (Some(report), Seq("small")) => Right(() => report(true))
      case _                            => Left(usage)
    }

  def main(args: Array[String]): Unit = parse(args.toSeq) match {
    case Right(report) => println(report())
    case Left(msg) =>
      System.err.println(msg)
      sys.exit(2)
  }
}
