package perfbench

import repro.compressor.{LorenzoPredictor, Predictor}
import repro.core.{Field, RQModel}
import repro.experiments.TableII
import repro.usecases.InSitu

/** `tune`: model only, no compression. One caller thread in a closed loop.
  * A pass selects an error bound for every field × predictor (build the
  * model, estimate at the Table II error bounds, invert for 60 dB PSNR and
  * for 2 bits/point), then runs one in-situ allocation over 8 RTM timesteps.
  *
  * It covers both model branches: patch simulation (Lorenzo) and the
  * analytic branch (interpolation, regression). The in-situ allocation asks
  * the same 25 error bounds on each of its ~80 λ steps while selection asks
  * fresh ones, so reusing estimates shows in one and not the other.
  */
object Tune {

  val TargetBitRate = 2.0
  val GridPoints = 25
  /** Shared REL bound whose summed variance is the in-situ budget (as in the Figs. 12–13 harness). */
  val SharedRel = 2e-3

  final case class InSituCase(models: Seq[RQModel], grids: Seq[Array[Double]], budget: Double)

  /** The in-situ experiment's inputs: one model per timestep, a 25-point
    * log grid per timestep, and the variance a shared REL bound reaches.
    */
  def inSituCase(parts: Seq[Field]): InSituCase = {
    val models = parts.map(f => RQModel.build(f, LorenzoPredictor))
    val ranges = parts.map(_.valueRange)
    val grids = ranges.map(r => (0 until GridPoints).map(i => r * 1e-4 * math.pow(10, 3.0 * i / (GridPoints - 1))).toArray)
    val budget = models.zip(ranges).map { case (m, r) => m.estimate(r * SharedRel).errVariance }.sum
    InSituCase(models, grids, budget)
  }

  final case class Selection(label: String, points: Long, totalNs: Long, selectNs: Long, bitRateNs: Long,
                             failures: Seq[String])

  def select(label: String, f: Field, p: Predictor): Selection = {
    val range = f.valueRange
    val failures = Seq.newBuilder[String]
    val ((selNs, brNs), totalNs) = Bench.timed {
      val ((model, psnrEb), selNs) = Bench.timed {
        val m = RQModel.build(f, p)
        (m, m.errorBoundForPsnr(ModelCost.TargetPsnr))
      }
      TableII.EbSweep.foreach(r => failures ++= Checks.estimate(model.estimate(r * range)))
      val (brEb, brNs) = Bench.timed(model.errorBoundForBitRate(TargetBitRate, withLossless = true))
      failures ++= Checks.invertedEb("errorBoundForPsnr", psnrEb)
      failures ++= Checks.invertedEb("errorBoundForBitRate", brEb)
      (selNs, brNs)
    }
    Selection(s"$label ${p.name}", f.size.toLong, totalNs, selNs, brNs, failures.result())
  }

  def run(seed: Long, seconds: Int): Outcome = {
    val ((fields, parts), setupS) = Bench.setup {
      (Inputs.specs(seed).map(s => s.id -> s.generate()), Inputs.inSituParts(seed))
    }
    def selectAll(): Seq[Selection] = for ((label, f) <- fields; p <- Predictor.all) yield select(label, f, p)
    def inSitu(): (InSitu.Allocation, Double, Long) = {
      val c = inSituCase(parts)
      val (a, ns) = Bench.timed(InSitu.optimize(c.models, c.budget, c.grids))
      (a, c.budget, ns)
    }
    Bench.warmUp { selectAll(); inSitu() }

    val tally = new Tally
    val sels = Seq.newBuilder[Selection]
    val inSituNs = Seq.newBuilder[Long]
    Bench.window(seconds) {
      selectAll().foreach { s => tally.record(s.label, s.failures); sels += s }
      val (alloc, budget, ns) = inSitu()
      tally.record("InSitu.optimize", Checks.allocation(alloc, budget))
      inSituNs += ns
    }
    val ss = sels.result()
    val byOp = ss.groupBy(_.label).values.toSeq
    val insitu = inSituNs.result()
    val metrics = Bench.endToEnd(setupS, byOp.map(_.map(_.totalNs)) :+ insitu,
      byOp.map(s => (s.head.points, s.map(_.selectNs))), byOp.map(_.map(_.bitRateNs)))
    val selectMs = byOp.map(s => Bench.med(s.map(_.selectNs)) / 1e6)
    val allSelectMs = ss.map(_.selectNs / 1e6)
    Bench.named("tune.select_ms", Stats.median(selectMs), "ms", s"median over ${byOp.length} field x predictor pairs")
    Bench.named("tune.select_ms_p90", Stats.quantile(allSelectMs, 0.9), "ms", s"over ${allSelectMs.length} calls")
    Bench.named("tune.bitrate_eb_ms", Stats.median(ss.map(_.bitRateNs / 1e6)), "ms", s"median over ${ss.length} calls")
    Bench.named("tune.insitu_s", Stats.median(insitu.map(_ / 1e9)), "s", s"median over ${insitu.length} calls")
    val rtmSelect = ss.filter(_.label == s"RTM/2000 ${LorenzoPredictor.name}").map(_.selectNs / 1e6)
    ModelCost.report(Stats.median(rtmSelect), "tune window",
      ModelCost.compressMs(ModelCost.rtm(seed)), "measured after the window")
    Outcome(tally.attempted, tally.failed, metrics)
  }
}
