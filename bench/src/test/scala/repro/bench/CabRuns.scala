package repro.bench

import repro.SparkSpec
import repro.exp.CabExperiment

/** The §6 CAB sweep at bench scale (`CabExperiment.Params()`), computed ONCE
  * per bench-JVM and shared by the Table 1 / Fig 6 / Fig 7 / Fig 8 suites
  * (they are views over the same experiment, exactly as in the paper).
  */
object CabRuns {
  lazy val results: Vector[CabExperiment.StrategyResult] =
    CabExperiment.runAll(SparkSpec.shared, CabExperiment.Params())

  def byName(name: String): CabExperiment.StrategyResult =
    results.find(_.strategy == name).get
}
