package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.exp.TuneExperiments
import repro.exp.TuneExperiments.{tpchCount, wp1Count, wp1Entropy, wp3Count}

/** Figure 9: auto-tuning compaction triggers with an MLOS/FLAML-style
  * optimizer over three LST-Bench workloads and two traits.
  *
  * Paper shapes: (a) TPC-DS WP1 benefits up to 2× from a well-chosen
  * small-file-count threshold; (b) TPC-H is best with the default (no
  * auto-compaction) because rewrites hit whole non-partitioned tables;
  * (c) the entropy trigger reaches results comparable to the small-file-
  * count trigger; (d) TPC-DS WP3 (decoupled read/write clusters) benefits
  * consistently across thresholds.
  */
class Fig9AutoTuneBench extends AnyFunSuite {

  test("Figure 9a: TPC-DS WP1, small-file-count trigger") {
    val r = TuneExperiments.run(wp1Count)
    println(TuneExperiments.report(wp1Count, r))
    val gain = r.head.durationSec / r.map(_.durationSec).min
    println(f"wp1 smallFileCount gain over default: $gain%.2fx (paper: up to 2x)")
    assert(gain > 1.4)
  }

  test("Figure 9b: TPC-H — default (no auto-compaction) is best") {
    val r = TuneExperiments.run(tpchCount)
    println(TuneExperiments.report(tpchCount, r))
    assert(r.head.durationSec == r.map(_.durationSec).min)
  }

  test("Figure 9c: TPC-DS WP1, entropy trigger comparable to count trigger") {
    val rc = TuneExperiments.run(wp1Count)
    val re = TuneExperiments.run(wp1Entropy)
    println(TuneExperiments.report(wp1Entropy, re))
    val bc = rc.map(_.durationSec).min
    val be = re.map(_.durationSec).min
    println(f"best wp1 durations — count: $bc%.1f s, entropy: $be%.1f s")
    assert(math.abs(bc - be) / math.max(bc, be) < 0.15)
  }

  test("Figure 9d: TPC-DS WP3 — consistent benefits") {
    val r = TuneExperiments.run(wp3Count)
    println(TuneExperiments.report(wp3Count, r))
    val default = r.head.durationSec
    val improving = r.tail.count(_.durationSec < default)
    println(s"wp3: $improving/${r.tail.size} iterations beat the default")
    assert(improving > r.tail.size / 2)
  }
}
