package perfbench

import repro.compressor.{Compressor, LorenzoPredictor}
import repro.core.{Field, RQModel}
import repro.data.SciData

/** The paper's headline ratio (Fig. 10): choosing an error bound with the
  * model costs a small share of one compression. It is `tune`'s RTM/2000
  * Lorenzo selection time over `archive`'s RTM/2000 Lorenzo compress time at
  * REL 1e-3. It spans two workloads, so it is printed as derived and not
  * gated; a run measures whichever input its own workload does not, after
  * its measuring window.
  */
object ModelCost {

  val TargetPsnr = 60.0
  val EbRel = 1e-3
  private val WarmUps = 8
  private val Repeats = 5

  def rtm(seed: Long): Field = Inputs.reseed(SciData.byId("RTM", "2000"), seed).generate()

  def select(f: Field): Double = RQModel.build(f, LorenzoPredictor).errorBoundForPsnr(TargetPsnr)

  /** Median time of `f` over [[Repeats]] calls, after [[WarmUps]] untimed
    * ones: the workload that measures it has not run it before.
    */
  private def medianMs(f: => Any): Double = {
    (0 until WarmUps).foreach(_ => f)
    Stats.median((0 until Repeats).map(_ => Bench.timed(f)._2 / 1e6))
  }

  def compressMs(f: Field): Double = medianMs(Compressor.compress(f, EbRel * f.valueRange, LorenzoPredictor))

  def selectMs(f: Field): Double = medianMs(select(f))

  def report(selectMs: Double, selectFrom: String, compressMs: Double, compressFrom: String): Unit =
    Bench.named("model_cost_pct", 100 * selectMs / compressMs, "%",
      f"derived, not gated: select_ms $selectMs%.3f ($selectFrom) / compress_ms $compressMs%.3f ($compressFrom)")
}
