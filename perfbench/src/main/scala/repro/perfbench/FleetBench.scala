package repro.perfbench

import repro.core._
import repro.exp.FleetExperiments
import repro.fleet._
import repro.lst.TableRef
import repro.util.DetRng

/** `fleet`: decide-phase ranking at production scale. The 35K-table
  * simulator of `FleetExperiments.prodCfg()` runs under a 226 TBHr daily
  * budget from day 1, so every day ranks the whole candidate pool. The
  * budget clears the initial backlog within about two months, after which
  * the pool is small; a measured window is the first `WindowDays` days,
  * while the pool is large. Each window simulates its own fleet, seeded from
  * `--seed` and the window's index: fleet sizes are heavy-tailed, so one
  * fleet's mean file count varies by 20% between seeds. A day is the
  * interval between two `onDay` callbacks; day 1 also builds the initial
  * fleet and is not timed.
  */
object FleetBench {
  val BudgetTbHr = 226.0
  /** Days of each set-up simulation; the first window must repeat them. */
  val PrefixDays = 10
  val WindowDays = 41
  /** Measured windows per `--seconds`: one per 8 s, at least 3. Each takes
    * about 3.5 s on 4 vCPUs, so the windows measure about half of
    * `--seconds`.
    */
  def windows(seconds: Int): Int = math.max(3, seconds / 8)

  def digest(days: Seq[DayMetrics]): String = Bench.sha256(days.iterator.map(_.toString))

  def run(ctx: Ctx): Unit = {
    val res = ctx.res
    val cfgs = (0 until windows(ctx.seconds)).map(i =>
      FleetExperiments.prodCfg().copy(seed = DetRng.combine(ctx.seed, i.toLong)))
    val schedule: Map[Int, Policy] = Map(1 -> Policy.AutoBudget(BudgetTbHr))

    // Set-up, three times: a short simulation of the first window's fleet
    // that warms the JIT; its days are the prefix that window must reproduce.
    val prefixes = (1 to 3).map { _ =>
      val (days, ms) = Bench.timed(new FleetSimulator(cfgs.head).run(PrefixDays, schedule))
      res.setupRepsS += ms / 1000
      digest(days)
    }
    res.check("fleet.setup_runs_identical", prefixes.distinct.size == 1, prefixes.mkString(","))

    val replay = new DecideReplay(cfgs.head)
    val jvm = new Bench.JvmWindow
    ctx.tracer.start()
    var replayNs = 0L
    var wallMs = 0.0
    val runs = cfgs.map { cfg =>
      var last = System.nanoTime()
      val (days, ms) = Bench.timed(new FleetSimulator(cfg).run(WindowDays, schedule,
        onDay = (day, tables, picked) => {
          val now = System.nanoTime()
          if (day > 1) {
            res.sample("op_ms", (now - last) / 1e6)
            ctx.tracer.record("fleet.day", last, now, Map("k" -> picked.size.toDouble))
          }
          if (ctx.traced) replayNs += replay.run(ctx.tracer, tables, picked)
          last = System.nanoTime()
        }))
      wallMs += ms
      days
    }
    jvm.finish(res)
    val allDays = runs.flatten
    res.attempted = allDays.size.toLong
    res.set("measured_s", wallMs / 1000)
    res.set("ops_per_s", res.attempted / (wallMs / 1000))
    // A scan of a table opens all its live files (FleetTable.scanRatePerDay).
    res.set("files_per_scan", allDays.map(_.totalFiles.toDouble / cfgs.head.nTables).sum / allDays.size)

    val overBudget = allDays.filter(_.tbHrSpent > BudgetTbHr + 1e-9)
    res.check("fleet.daily_tbhr_within_budget", overBudget.isEmpty,
      overBudget.map(d => s"day ${d.day}: ${d.tbHrSpent}").mkString("; "))
    res.check("fleet.prefix_reproduced", digest(runs.head.take(PrefixDays)) == prefixes.head)
    res.record("digest") = digest(allDays)
    res.record("windows") = runs.size
    res.record("k_total") = allDays.map(_.kCompacted.toLong).sum
    if (ctx.traced) res.set("trace.overhead_pct", 100.0 * replayNs / 1e6 / wallMs)
  }
}

/** Traced runs only: after each simulated day, rebuild a candidate pool of
  * the size that day ranked and time the public `Ranker`/`Selector` calls
  * the simulator makes internally. The day's picked tables join the pool
  * (their post-compaction stats stand in for the pre-compaction ones), so
  * the pool has exactly the day's size; the replay runs between days and
  * does not count towards their time.
  */
final class DecideReplay(cfg: FleetConfig) {
  private val ccfg = CompactionConfig(
    targetFileSizeBytes = (cfg.targetFileMb * (1L << 20)).toLong,
    executorMemoryGb = cfg.execMemGb,
    rewriteBytesPerHour = cfg.rewriteTbPerHour * (1L << 40))
  private val costCapGbHr = cfg.maxCandidateTbHr * 1024.0

  private def eligible(t: FleetTable): Boolean =
    t.smallFiles >= cfg.minSmallFilesCandidate &&
      Traits.ComputeCostGbHr.compute(stats(t), ccfg) <= costCapGbHr

  private def stats(t: FleetTable): CandidateStats = CandidateStats(
    fileCount = t.totalFiles.toInt.max(0),
    smallFileCount = t.smallFiles.toInt.max(0),
    totalBytes = t.smallBytes + t.largeFiles * ccfg.targetFileSizeBytes,
    smallBytes = t.smallBytes,
    minFileBytes = 0L, maxFileBytes = 0L)

  /** Returns the replay's own wall time in ns. */
  def run(tracer: Tracer, tables: Vector[FleetTable], picked: Vector[FleetTable]): Long = {
    val t0 = System.nanoTime()
    val pool = (tables.filter(eligible) ++ picked).map { t =>
      (Candidate(TableRef(s"db${t.db}", s"t${t.id}"), Scope.Table, None, Vector.empty, 0L), stats(t))
    }
    val usedByDb = tables.groupBy(_.db).map { case (db, ts) => s"db$db" -> ts.map(_.totalFiles).sum }
    val w1 = (c: Candidate) =>
      0.5 * (1.0 + math.min(1.0, usedByDb(c.table.db).toDouble / cfg.dbQuotaObjects))
    val ranker = Ranker.MoopRanker(
      Vector(Traits.FileCountReduction -> 0.7, Traits.ComputeCostGbHr -> 0.3), Some(w1))
    val ranked = tracer.span("core.rank") { s =>
      s.add("pool", pool.size)
      ranker.rank(pool, ccfg)
    }
    tracer.span("core.select") { s =>
      val sel = Selector.BudgetGreedy(FleetBench.BudgetTbHr * 1024.0).select(ranked, ccfg)
      s.add("selected", sel.size)
    }
    System.nanoTime() - t0
  }
}
