package repro.perfbench

import java.nio.file.{Files, Path}
import scala.collection.mutable

import repro.core._
import repro.lst._
import repro.util.DetRng

/** `plan`: LST metadata commits and OODA planning, no Spark jobs. A catalog
  * of synthetic tables (file entries only, no Parquet files) is built by
  * `LstTable.commit`; the measured rounds then interleave commits (appends,
  * overwrites, and rewrites whose base is one commit stale, so conflict
  * validation runs) with `AutoComp.runOnce` planning passes under
  * `Selector.TopK(0)`, which plan without acting. The benchmark keeps its
  * own model of every commit and checks the catalog against it.
  */
object PlanBench {
  val Dbs = 6
  val TablesPerDb = 25
  val Partitions = 12
  /** Initial appends per table and files each adds per partition. */
  val BuildAppends = 4
  val BuildFilesPerPartition = 4
  val CommitsPerRound = 4
  val WarmupRounds = 20
  /** Measured rounds per `--seconds`: 6 per second, at least the 100 a p90
    * needs. A round takes 1/12 to 1/7 s on 4 vCPUs, so the rounds measure
    * about three quarters of `--seconds`.
    */
  def measuredRounds(seconds: Int): Int = math.max(100, seconds * 6)

  val MB: Long = 1L << 20
  val cfg = CompactionConfig(targetFileSizeBytes = 128 * MB)
  val acfg = AutoCompConfig(ScopeStrategy.Hybrid, cfg, Seq(Filters.MinSmallFiles(2)),
    Ranker.defaultMoop, Selector.TopK(0))

  def partition(i: Int): String = f"p$i%02d"

  /** The benchmark's model of one table: its version and live files. */
  final class TableModel(val ref: TableRef) {
    var version = 0L
    val files = mutable.LinkedHashMap.empty[String, DataFile]
    def inventory: Vector[DataFile] = files.values.toVector.sortBy(_.path)
  }

  /** Deterministic workload generator plus model; `commit` applies one op
    * to both the catalog and the model.
    */
  final class World(val catalog: LstCatalog, seed: Long) {
    private val rng = new DetRng(DetRng.combine(seed, 0x9a11L))
    private var nextFile = 0L
    val models: Vector[TableModel] = (for {
      d <- 0 until Dbs; t <- 0 until TablesPerDb
    } yield new TableModel(TableRef(f"plan_db$d%02d", f"t$t%03d"))).toVector

    private def newFile(m: TableModel, part: String, bytes: Long, records: Long, addedVersion: Long) = {
      nextFile += 1
      DataFile(s"synthetic://${m.ref.db}/${m.ref.name}/f$nextFile.parquet", Some(part),
        bytes, records, addedVersion)
    }
    private def smallFile(m: TableModel, part: String, addedVersion: Long) = {
      val bytes = MB + rng.nextLongBounded(63 * MB)
      newFile(m, part, bytes, bytes / 100, addedVersion)
    }

    def build(): Unit = models.foreach { m =>
      catalog.createTable(m.ref.db, m.ref.name, Some("part"), nowMs = 0L)
      (1 to BuildAppends).foreach { _ =>
        val added = (0 until Partitions).toVector.flatMap(p =>
          Vector.fill(BuildFilesPerPartition)(smallFile(m, partition(p), m.version + 1)))
        commit(m, m.version, Append(added), None)
      }
    }

    /** Apply `op` at `base` to the catalog and, if the LST accepts it, to
      * the model; `onCommit` gets the commit's ms and version-file bytes.
      * The model expects every commit to be accepted.
      */
    def commit(m: TableModel, base: Long, op: CommitOp, onCommit: Option[(Double, Long) => Unit])
        : Boolean = {
      val table = catalog.table(m.ref)
      val t0 = System.nanoTime()
      val ok = try { table.commit(base, op); true } catch { case _: CommitConflictException => false }
      val ms = Bench.nowMs(t0)
      if (ok) {
        m.version += 1
        op match {
          case Append(_) => ()
          case Overwrite(r, _) => r.foreach(m.files.remove)
          case Rewrite(r, _) => r.foreach(m.files.remove)
        }
        op.added.foreach(f => m.files(f.path) = f)
        onCommit.foreach(_(ms, versionFileBytes(table.root, m.version)))
      }
      ok
    }

    /** One generated write: an append or an overwrite at the current
      * version, sometimes followed by a rewrite of the same table whose base
      * is the version before that write.
      */
    def nextOps(): (TableModel, Vector[(Long, CommitOp)]) = {
      val m = models(rng.nextInt(models.size))
      val base = m.version
      val first: CommitOp =
        if (rng.nextDouble() < 0.6) {
          val parts = Vector.fill(1 + rng.nextInt(3))(partition(rng.nextInt(Partitions))).distinct
          Append(parts.flatMap(p => Vector.fill(1 + rng.nextInt(3))(smallFile(m, p, base + 1))))
        } else {
          val p = partition(rng.nextInt(Partitions))
          val victims = m.files.values.filter(_.partition.contains(p)).toVector
            .sortBy(_.path).take(1 + rng.nextInt(2))
          if (victims.isEmpty) Append(Vector(smallFile(m, p, base + 1)))
          else {
            val bytes = (victims.map(_.sizeBytes).sum * 0.9).toLong
            Overwrite(victims.map(_.path), Vector(newFile(m, p, bytes, bytes / 100, base + 1)))
          }
        }
      val rewrite: Option[(Long, CommitOp)] =
        if (rng.nextDouble() >= 0.4) None
        else {
          // Files live at `base` that the first op leaves in place.
          val removedFirst = first match {
            case Overwrite(r, _) => r.toSet
            case _ => Set.empty[String]
          }
          val p = partition(rng.nextInt(Partitions))
          val victims = m.files.values
            .filter(f => f.partition.contains(p) && f.sizeBytes < cfg.targetFileSizeBytes &&
              !removedFirst(f.path))
            .toVector.sortBy(_.path)
          if (victims.size < 2) None
          else Some(base -> Rewrite(victims.map(_.path), Vector(newFile(m, p,
            victims.map(_.sizeBytes).sum, victims.map(_.recordCount).sum, base + 1))))
        }
      (m, (base -> first) +: rewrite.toVector)
    }

    /** Candidate counts the model predicts for one planning pass. */
    def expectedCounts: (Int, Int) = {
      val perPartition = models.flatMap(_.files.values.groupBy(_.partition).values)
      val kept = perPartition.count(_.count(_.sizeBytes < cfg.targetFileSizeBytes) >= 2)
      (perPartition.size, kept)
    }

    def inventoryDigest(read: TableModel => Vector[DataFile]): String =
      Bench.sha256(models.iterator.flatMap(m => read(m).map(f => s"${m.ref} $f")))
  }

  private def versionFileBytes(root: Path, v: Long): Long =
    Files.size(root.resolve("meta").resolve(f"v$v%06d.json"))

  def run(ctx: Ctx): Unit = {
    val res = ctx.res
    val tracer = ctx.tracer
    val (spark, sparkMs) = Bench.timed(Bench.startSpark(ctx))
    val io = new SparkIo
    spark.sparkContext.addSparkListener(io)

    // Set-up, three times: build the catalog from scratch. Each build must
    // leave the same inventory; the last one is measured.
    var world: World = null
    val buildDigests = (0 until 3).map { i =>
      if (world != null) Bench.deleteTree(world.catalog.root)
      val (w, ms) = Bench.timed {
        val w = new World(new LstCatalog(ctx.runDir.resolve(s"catalog-$i")), ctx.seed)
        w.build()
        w
      }
      res.setupRepsS += ms / 1000
      world = w
      w.inventoryDigest(_.inventory)
    }
    res.check("plan.builds_identical", buildDigests.distinct.size == 1)
    val catalog = world.catalog
    val autoComp = new AutoComp(catalog)

    var commits = 0L
    var measuredCommits = 0L
    var tableFiles = 0.0
    var rejected = 0L
    var countMismatches = Vector.empty[String]
    var equivalenceMismatches = Vector.empty[String]

    def round(measured: Boolean): Unit = {
      var n = 0
      while (n < CommitsPerRound) {
        val (m, ops) = world.nextOps()
        ops.foreach { case (base, op) =>
          val ok = tracer.span("lst.commit") { s =>
            world.commit(m, base, op, Some { (ms: Double, bytes: Long) =>
              if (measured) res.sample("commit_ms", ms)
              s.add("bytes", bytes.toDouble)
            })
          }
          commits += 1
          if (measured) measuredCommits += 1
          if (!ok) rejected += 1
          n += 1
        }
      }
      if (measured) tableFiles += world.models.map(_.files.size).sum.toDouble / world.models.size
      val (generated, kept) = world.expectedCounts
      def countsOk(r: AutoCompReport, what: String): Unit =
        if (r.generated != generated || r.ranked != kept)
          countMismatches :+= s"$what: generated ${r.generated}/$generated ranked ${r.ranked}/$kept"
      if (!ctx.traced) {
        val (report, ms) = Bench.timed(autoComp.runOnce(spark, acfg))
        if (measured) res.sample("op_ms", ms)
        countsOk(report, "runOnce")
      } else {
        // Untraced reference pass and traced phases on the same state.
        val ((report, cap), refMs) = Bench.timed(Pipeline.reference(spark, catalog, acfg))
        val (pass, passMs) = Bench.timed(tracer.span("plan.pass")(_ =>
          Pipeline.traced(spark, catalog, acfg, tracer)))
        if (measured) { res.sample("op_ms", refMs); res.sample("plan_traced_ms", passMs) }
        countsOk(report, "runOnce")
        Pipeline.mismatch(report, cap, pass).foreach(d => equivalenceMismatches :+= d)
        // The catalog reads candidate generation makes, timed one by one.
        val refs = tracer.span("lst.catalog_list")(_ => catalog.allTables)
        refs.foreach(ref => tracer.span("lst.snapshot_load")(s =>
          s.add("files", catalog.table(ref).currentSnapshot.fileCount)))
      }
    }

    val (_, warmMs) = Bench.timed((1 to WarmupRounds).foreach(_ => round(measured = false)))
    res.setupOnceS = (sparkMs + warmMs) / 1000
    val rounds = measuredRounds(ctx.seconds)
    val jvm = new Bench.JvmWindow
    tracer.start()
    val (_, wallMs) = Bench.timed((1 to rounds).foreach(_ => round(measured = true)))
    jvm.finish(res)
    res.set("measured_s", wallMs / 1000)
    res.set("ops_per_s", (measuredCommits + rounds) / (wallMs / 1000))
    res.set("files_per_scan", tableFiles / rounds)
    res.set("lst.metadata_mb", Bench.metadataMb(catalog.root))

    val model = world.inventoryDigest(_.inventory)
    val actual = world.inventoryDigest(m => catalog.table(m.ref).currentSnapshot.files.sortBy(_.path))
    res.check("plan.inventory_matches_model", model == actual)
    res.check("plan.versions_match_model",
      world.models.forall(m => catalog.table(m.ref).currentVersion == m.version))
    res.check("plan.candidate_counts", countMismatches.isEmpty, countMismatches.take(3).mkString("; "))
    if (ctx.traced)
      res.check("plan.traced_phases_match_runOnce", equivalenceMismatches.isEmpty,
        equivalenceMismatches.take(3).mkString("; "))
    io.drain()
    res.check("plan.no_spark_jobs", io.jobsStarted == 0, s"${io.jobsStarted} jobs")
    res.attempted = commits + rounds + WarmupRounds
    res.failed = rejected
    res.record("digest") = model
    res.record("rounds") = rounds
    res.record("commits") = commits
    res.record("file_entries") = world.models.map(_.files.size.toLong).sum
    if (ctx.traced) {
      val ref = Bench.median(res.samples("op_ms").toSeq)
      res.set("trace.overhead_pct", 100.0 * (Bench.median(res.samples("plan_traced_ms").toSeq) - ref) / ref)
    }
    spark.stop()
    Bench.deleteTree(catalog.root)
  }
}
