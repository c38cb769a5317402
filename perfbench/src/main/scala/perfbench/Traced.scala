package perfbench

import java.nio.file.Path
import repro.analysis.Metrics
import repro.compressor._
import repro.core.{Field, Histogram, PatchSim, RQModel}
import repro.experiments.TableII
import repro.sparkapi.{Chunks, ModelPipeline}
import repro.usecases.InSitu
import scala.collection.mutable

/** The traced run: calls each layer's public functions in the order the
  * program calls them, with a span around each call, and reports per-layer
  * metrics from the spans. It covers every layer whatever the workload; the
  * workload's seed picks the inputs. End-to-end numbers come from the
  * untraced runs; `trace.overhead_pct` compares traced and untraced compress.
  */
object Traced {

  def run(seed: Long, work: Path, spansPath: Path): Outcome = {
    val tally = new Tally
    val tr = new Tracer
    val fields = Inputs.specs(seed).map { s =>
      val f = tr.span("data.generate", s.benchDims.product.toLong)(s.generate())
      s.id -> f
    }
    val metrics = Seq(Metric("data.generate_MBps", mbps(tr, "data.generate"), "MB/s")) ++
      compressor(tr, Archive.ops(Inputs.archiveFields(seed)), tally) ++
      core(tr, fields, tally) ++
      usecases(tr, Inputs.inSituParts(seed), tally) ++
      sparkapi(tr, Inputs.specs(seed), work, tally)
    tr.write(spansPath)
    Bench.info(s"spans written to $spansPath")
    Outcome(tally.attempted, tally.failed, metrics)
  }

  // ------------------------------------------------------------- span sums

  private def selfSec(tr: Tracer, ss: Seq[Span]): Double = {
    val self = tr.selfNs
    ss.map(s => self(s.id)).sum / 1e9
  }

  /** MB of input doubles per second of the spans' self time. */
  def mbps(tr: Tracer, name: String): Double = {
    val ss = tr.named(name)
    Stats.mb(ss.map(_.points).sum) / selfSec(tr, ss)
  }

  /** Mean duration per span, in ns. */
  def meanNs(tr: Tracer, name: String): Double = {
    val ss = tr.named(name)
    ss.map(_.durNs).sum.toDouble / ss.length
  }

  def allocPerPoint(tr: Tracer, names: Seq[String]): Double = {
    val ss = names.flatMap(tr.named)
    ss.map(_.allocB).sum.toDouble / ss.map(_.points).sum
  }

  // ------------------------------------------------------------ compressor

  final case class Codes(distinct: Int, maxLen: Int, escapes: Int, zeros: Long, n: Long)

  /** One `archive` operation, with the stages of [[Compressor.compress]] and
    * [[Compressor.decompressBlob]] called one by one. The work between stage
    * spans (frequency count, payload copy) is the compress span's self time.
    */
  def decompose(tr: Tracer, op: Archive.Op): (Codes, Long, Seq[String]) = {
    tr.nextOp()
    val f = op.field
    val n = f.size.toLong
    val p = op.predictor
    val (out, freqs, lens, huff) = tr.span("compressor.compress", n) {
      val out = tr.span(s"compressor.predict.${p.name}", n)(p.compress(f, new Quantizer(op.eb)))
      val freqs = {
        val m = mutable.Map.empty[Int, Long].withDefaultValue(0L)
        out.codes.foreach(c => m(c) += 1)
        m.toMap
      }
      val lens = tr.span("compressor.codelengths", n)(Huffman.codeLengths(freqs))
      val huff = tr.span("compressor.huff_encode", n)(Huffman.encode(out.codes))
      val payload = java.util.Arrays.copyOfRange(huff, Huffman.codebookBytes(freqs.size), huff.length)
      tr.span("compressor.lossless", n)(Lossless.compress(payload))
      tr.span("compressor.rle", n)(Rle.bitsAfterZeroRunRle(out.codes, lens))
      (out, freqs, lens, huff)
    }
    val decoded = tr.span("compressor.decompress", n) {
      val codes = tr.span("compressor.huff_decode", n)(Huffman.decode(huff))
      tr.span(s"compressor.reconstruct.${p.name}", n)(
        p.decompress(f.dims, new Quantizer(op.eb), codes, out.unpredictable, out.side))
    }
    tr.span("analysis.psnr", n)(Metrics.psnr(f, decoded))
    tr.span("analysis.ssim", n)(Metrics.ssimGlobal(f, decoded))
    val (res, refNs) = Bench.timed(Compressor.compress(f, op.eb, p)) // untraced, for the overhead
    val codes = Codes(freqs.size, lens.values.max, out.unpredictable.length, freqs.getOrElse(0, 0L), n)
    (codes, refNs, Checks.roundTrip(f, op.eb, res, decoded))
  }

  def compressor(tr: Tracer, ops: Seq[Archive.Op], tally: Tally): Seq[Metric] = {
    val warm = new Tracer
    ops.foreach(decompose(warm, _))
    val done = ops.map { op =>
      val (c, refNs, failures) = decompose(tr, op)
      tally.record(s"traced ${op.label} ${op.predictor.name} ${op.ebRel}", failures)
      (c, refNs)
    }
    val codes = done.map(_._1)
    val compress = tr.named("compressor.compress")
    val compressNs = compress.map(_.durNs).sum.toDouble
    val names = Predictor.all.map(_.name)
    names.map(p => Metric(s"compressor.predict_MBps.$p", mbps(tr, s"compressor.predict.$p"), "MB/s")) ++
      names.map(p => Metric(s"compressor.reconstruct_MBps.$p", mbps(tr, s"compressor.reconstruct.$p"), "MB/s")) ++
      Seq(
        Metric("compressor.codelengths_ms", meanNs(tr, "compressor.codelengths") / 1e6, "ms"),
        Metric("compressor.huff_encode_MBps", mbps(tr, "compressor.huff_encode"), "MB/s"),
        Metric("compressor.huff_decode_MBps", mbps(tr, "compressor.huff_decode"), "MB/s"),
        Metric("compressor.lossless_MBps", mbps(tr, "compressor.lossless"), "MB/s"),
        Metric("compressor.rle_MBps", mbps(tr, "compressor.rle"), "MB/s"),
        Metric("compressor.alloc_B_per_pt.predict", allocPerPoint(tr, names.map(p => s"compressor.predict.$p")), "B/pt"),
        Metric("compressor.alloc_B_per_pt.encode", allocPerPoint(tr, Seq("compressor.huff_encode")), "B/pt"),
        Metric("compressor.alloc_B_per_pt.decode", allocPerPoint(tr, Seq("compressor.decompress")), "B/pt"),
        Metric("compressor.distinct_codes", Stats.median(codes.map(_.distinct.toDouble)), "count"),
        Metric("compressor.max_code_len", codes.map(_.maxLen).max.toDouble, "bits"),
        Metric("compressor.escapes", codes.map(_.escapes.toLong).sum.toDouble, "count"),
        Metric("compressor.p0", codes.map(_.zeros).sum.toDouble / codes.map(_.n).sum, "share"),
        Metric("compressor.untraced_share", selfSec(tr, compress) * 1e9 / compressNs, "share"),
        Metric("analysis.psnr_ms", meanNs(tr, "analysis.psnr") / 1e6, "ms"),
        Metric("analysis.ssim_ms", meanNs(tr, "analysis.ssim") / 1e6, "ms"),
        Metric("trace.overhead_pct", 100 * (compressNs / done.map(_._2).sum - 1), "%"),
      )
  }

  // ------------------------------------------------------------------ core

  private def model(tr: Tracer, label: String, f: Field, p: Predictor): (RQModel, Seq[String]) = {
    tr.nextOp()
    val m = tr.span(s"core.sample.${p.name}", f.size.toLong)(RQModel.build(f, p))
    val patch = m.sample.patches.nonEmpty
    val failures = Seq.newBuilder[String]
    TableII.EbSweep.foreach { r =>
      val eb = r * f.valueRange
      failures ++= Checks.estimate(tr.span(if (patch) "core.estimate.patch" else "core.estimate.analytic")(m.estimate(eb)))
      // the call `estimate` makes for its branch, on the same sample and eb
      if (patch) tr.span("core.patchsim")(PatchSim.simulate(m.sample.patches, eb))
      else tr.span("core.histogram")(Histogram.fromErrors(m.sample.errors, eb))
    }
    failures ++= Checks.invertedEb("errorBoundForPsnr",
      tr.span("core.psnr_inversion")(m.errorBoundForPsnr(ModelCost.TargetPsnr)))
    (m, failures.result())
  }

  def core(tr: Tracer, fields: Seq[(String, Field)], tally: Tally): Seq[Metric] = {
    val pairs = for ((label, f) <- fields; p <- Predictor.all) yield (label, f, p)
    val warm = new Tracer
    pairs.foreach { case (l, f, p) => model(warm, l, f, p) }
    val models = pairs.map { case (l, f, p) =>
      val (m, failures) = model(tr, l, f, p)
      tally.record(s"traced model $l ${p.name}", failures)
      m
    }
    val estimates = tr.named("core.estimate.patch") ++ tr.named("core.estimate.analytic")
    val estimateNs = estimates.map(_.durNs).sum.toDouble / estimates.length
    val withPatches = models.filter(_.sample.patches.nonEmpty)
    Bench.info("core.psnr_inversion_estimates is derived: errorBoundForPsnr time / mean estimate time")
    Predictor.all.map(p => Metric(s"core.sample_ms.${p.name}", meanNs(tr, s"core.sample.${p.name}") / 1e6, "ms")) ++
      Seq(
        Metric("core.estimate_us.patch", meanNs(tr, "core.estimate.patch") / 1e3, "us"),
        Metric("core.estimate_us.analytic", meanNs(tr, "core.estimate.analytic") / 1e3, "us"),
        Metric("core.patchsim_us", meanNs(tr, "core.patchsim") / 1e3, "us"),
        Metric("core.histogram_us", meanNs(tr, "core.histogram") / 1e3, "us"),
        Metric("core.alloc_B_per_estimate", estimates.map(_.allocB).sum.toDouble / estimates.length, "B"),
        Metric("core.sample_errors", Stats.median(models.map(_.sample.errors.length.toDouble)), "count"),
        Metric("core.patches", Stats.median(withPatches.map(_.sample.patches.length.toDouble)), "count"),
        // derived: how many estimates' worth of time one PSNR inversion takes
        Metric("core.psnr_inversion_estimates", meanNs(tr, "core.psnr_inversion") / estimateNs, "count"),
      )
  }

  // -------------------------------------------------------------- usecases

  /** `usecases.insitu_estimates` is derived, as `core.psnr_inversion_estimates`
    * is: one `InSitu.optimize` call's time over the mean time of one
    * `estimate` call on the same models and grids, so it falls when the
    * search asks fewer estimates or reuses them. The benchmark cannot count
    * the calls inside `optimize`, so it reports no share of them.
    */
  def usecases(tr: Tracer, parts: Seq[Field], tally: Tally): Seq[Metric] = {
    val c = Tune.inSituCase(parts)
    tr.nextOp()
    val alloc = tr.span("usecases.insitu")(InSitu.optimize(c.models, c.budget, c.grids))
    tally.record("traced InSitu.optimize", Checks.allocation(alloc, c.budget))
    // one sweep of every grid, as one λ step of the search makes; the median of three sweeps
    val sweepNs = Stats.median((0 until 3).map { _ =>
      c.models.zip(c.grids).map { case (m, g) => Bench.timed(g.foreach(m.estimate))._2 }.sum.toDouble
    })
    val perEstimateNs = sweepNs / c.grids.map(_.length).sum
    Bench.info("usecases.insitu_estimates is derived: InSitu.optimize time / mean estimate time")
    Seq(Metric("usecases.insitu_estimates", meanNs(tr, "usecases.insitu") / perEstimateNs, "count"))
  }

  // -------------------------------------------------------------- sparkapi

  def sparkapi(tr: Tracer, specs: Seq[repro.data.SciField], work: Path, tally: Tally): Seq[Metric] = {
    val spark = SparkProbe.session(work)
    try {
      val listener = new TaskListener
      spark.sparkContext.addSparkListener(listener)
      Table2.job(spark, specs, test = true) // JIT warm-up on the small test dims
      val points = specs.map(_.benchDims.product.toLong).sum
      tr.nextOp()
      val chunks = tr.span("sparkapi.chunkall", points)(Chunks.chunkAll(spark, specs, Table2.NChunks))
      val (stats, modelTasks) = SparkProbe.traced(spark, listener) {
        tr.span("sparkapi.model_measure", points) {
          val s = ModelPipeline.modelAndMeasure(chunks, TableII.EbSweep, LorenzoPredictor, Table2.SampleRate).cache()
          s.count()
          s
        }
      }
      val (agg, aggTasks) = SparkProbe.traced(spark, listener) {
        tr.span("sparkapi.aggregate")(ModelPipeline.aggregateByField(stats).collect())
      }
      val result = Table2.rows(specs, agg, test = false)
      tally.record("traced table2 job", Checks.table2(result, specs.length))
      Bench.info(s"traced table2 ${Table2.averages(result)}")
      val heavy = SparkProbe.heaviestStage(modelTasks).map(_.durationMs.toDouble)
      val all = modelTasks ++ aggTasks
      val modelWallMs = meanNs(tr, "sparkapi.model_measure") / 1e6
      Seq(
        Metric("sparkapi.chunkall_s", meanNs(tr, "sparkapi.chunkall") / 1e9, "s"),
        Metric("sparkapi.model_measure_s", modelWallMs / 1e3, "s"),
        Metric("sparkapi.aggregate_s", meanNs(tr, "sparkapi.aggregate") / 1e9, "s"),
        Metric("sparkapi.task_ms_p50", Stats.median(heavy), "ms"),
        Metric("sparkapi.task_ms_max", heavy.max, "ms"),
        Metric("sparkapi.skew", heavy.max / Stats.median(heavy), "x"),
        Metric("sparkapi.parallel_eff", modelTasks.map(_.runTimeMs).sum / (modelWallMs * SparkProbe.slots), "share"),
        Metric("sparkapi.shuffle_write_MB", all.map(_.shuffleWriteB).sum / 1e6, "MB"),
        Metric("sparkapi.gc_ms", all.map(_.gcMs).sum.toDouble, "ms"),
      )
    } finally spark.stop()
  }
}
