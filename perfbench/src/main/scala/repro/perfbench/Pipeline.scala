package repro.perfbench

import org.apache.spark.sql.SparkSession

import repro.core._
import repro.lst.LstCatalog

/** Selector that records the ranking it is given and what the wrapped
  * selector picks from it, then hands nothing to the act phase. Wrapped into
  * `AutoComp.runOnce`, it shows what the real entrypoint would select on the
  * current catalog state without changing that state.
  */
final class CapturingSelector(inner: Selector) extends Selector {
  val name = s"capture(${inner.name})"
  @volatile var ranked: Vector[ScoredCandidate] = Vector.empty
  @volatile var selected: Vector[ScoredCandidate] = Vector.empty
  def select(r: Vector[ScoredCandidate], cfg: CompactionConfig): Vector[ScoredCandidate] = {
    ranked = r
    selected = inner.select(r, cfg)
    Vector.empty
  }
}

/** The OODA phases of `AutoComp.runOnce`, called one by one through their
  * public functions so that each phase gets its own span.
  */
object Pipeline {
  final case class Pass(
      generated: Int,
      filteredOut: Map[String, Int],
      ranked: Vector[ScoredCandidate],
      selected: Vector[ScoredCandidate],
      results: Vector[CompactionResult])

  def traced(spark: SparkSession, catalog: LstCatalog, acfg: AutoCompConfig, tracer: Tracer): Pass = {
    val candidates = tracer.span("core.generate") { s =>
      val c = CandidateGenerator.generate(catalog, acfg.strategy)
      s.add("candidates", c.size)
      c
    }
    val observed = tracer.span("core.observe") { _ =>
      candidates.map(c => (c, Traits.observeAndOrient(c, acfg.cfg)._1))
    }
    val (kept, rejected) = tracer.span("core.filter") { s =>
      val r = Filters.apply(observed, acfg.filters)
      s.add("filtered_out", r._2.values.sum)
      r
    }
    val ranked = tracer.span("core.rank") { s =>
      s.add("pool", kept.size)
      acfg.ranker.rank(kept, acfg.cfg)
    }
    val selected = tracer.span("core.select") { s =>
      val x = acfg.selector.select(ranked, acfg.cfg)
      s.add("selected", x.size)
      x
    }
    val results = tracer.span("core.act") { s =>
      val r = new CompactionScheduler(acfg.scheduler).run(spark, catalog, selected, acfg.cfg)
      s.add("units", r.size)
      s.add("skipped", r.count(_.skipped))
      s.add("useful", r.count(u => u.succeeded && !u.skipped))
      s.add("attempts", r.map(_.attempts).sum)
      s.add("conflicts", r.map(_.conflicts).sum)
      s.add("bytes_rewritten", r.map(_.bytesRewritten).sum.toDouble)
      r
    }
    Pass(candidates.size, rejected, ranked, selected, results)
  }

  /** `AutoComp.runOnce` on the current state, without its act phase. */
  def reference(spark: SparkSession, catalog: LstCatalog, acfg: AutoCompConfig)
      : (AutoCompReport, CapturingSelector) = {
    val cap = new CapturingSelector(acfg.selector)
    val report = new AutoComp(catalog).runOnce(spark, acfg.copy(selector = cap))
    (report, cap)
  }

  /** Differences between the traced phases and the real entrypoint (empty
    * when they rank and select exactly the same candidates).
    */
  def mismatch(report: AutoCompReport, cap: CapturingSelector, pass: Pass): Option[String] = {
    def ids(xs: Vector[ScoredCandidate]) = xs.map(sc => (sc.candidate.id, sc.score))
    val diffs = Seq(
      "generated" -> (report.generated == pass.generated),
      "filteredOut" -> (report.filteredOut == pass.filteredOut),
      "ranked" -> (report.ranked == pass.ranked.size && ids(cap.ranked) == ids(pass.ranked)),
      "selected" -> (ids(cap.selected) == ids(pass.selected))).collect { case (n, false) => n }
    if (diffs.isEmpty) None else Some(diffs.mkString(","))
  }
}
