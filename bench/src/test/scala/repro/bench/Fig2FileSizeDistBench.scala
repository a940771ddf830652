package repro.bench

import repro.SparkSpec
import repro.exp.{FileSizeDistribution, Reports}

/** Figure 2: file size distribution for managed tables before vs after
  * compaction. Paper: 83% of files below the (128 MB) threshold before any
  * compaction; manual compaction brought this to 62%; AutoComp pushes the
  * distribution further toward the 512 MB target.
  */
class Fig2FileSizeDistBench extends SparkSpec {

  test("Figure 2: file size distribution before/after compaction") {
    val r = FileSizeDistribution.run(spark)
    println(Reports.fig2(r.before, r.after, r.pctBefore, r.pctAfter))

    assert(r.pctBefore > 90.0, s"untuned load should be almost all small files: ${r.pctBefore}")
    assert(r.pctAfter < r.pctBefore - 20.0,
      s"compaction must shift the distribution: ${r.pctBefore} -> ${r.pctAfter}")
    // the sub-quarter-target mass must collapse
    def belowQuarter(h: Vector[(String, Double)]): Double = h.take(3).map(_._2).sum
    assert(belowQuarter(r.after) < belowQuarter(r.before) / 4,
      s"sub-target/4 mass: ${belowQuarter(r.before)} -> ${belowQuarter(r.after)}")
  }
}
