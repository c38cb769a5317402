package repro.core

import java.nio.ByteBuffer
import java.security.MessageDigest
import org.scalatest.funsuite.AnyFunSuite
import repro.compressor.Predictor
import repro.data.SciData
import repro.experiments.TableII

/** Golden gate for the model: one SHA-256 over the sample [[RQModel.build]]
  * draws (errors in order, patch dims and data, `sideBytes`, `errorStd`),
  * every [[RQEstimate]] field at each [[TableII.EbSweep]] bound, the PSNR and
  * bit-rate inversions, and [[Sampler.fullErrors]], for the 17 Table-I fields
  * at test dims × 3 predictors. Doubles enter as raw bits.
  *
  * The digest is a recorded constant: a change to the sampler, the patch
  * simulation or any estimate changes it. A change that alters them on
  * purpose records the new digest and says why.
  */
class ModelGoldenSpec extends AnyFunSuite {

  private val Golden = "8a2431d31e5bde15c9a18af634e72f7b97f93f65bae49c9b896c7e7564c752c6"

  private final class Digest {
    val md: MessageDigest = MessageDigest.getInstance("SHA-256")
    private val bb = ByteBuffer.allocate(8)

    def long(v: Long): Unit = { bb.clear(); bb.putLong(v); md.update(bb.array()) }
    def double(v: Double): Unit = long(java.lang.Double.doubleToRawLongBits(v))
    def doubles(a: Array[Double]): Unit = { long(a.length.toLong); a.foreach(double) }
    def ints(a: Array[Int]): Unit = { long(a.length.toLong); a.foreach(i => long(i.toLong)) }
  }

  private def updateEstimate(d: Digest, e: RQEstimate): Unit = {
    Seq(e.eb, e.p0, e.huffBitRate, e.llBitRate, e.errVariance, e.psnr, e.ssim).foreach(d.double)
    d.long(e.estTotalBytes)
  }

  test("samples, estimates, inversions and full-scan errors match the golden digest") {
    val d = new Digest
    for (spec <- SciData.fields) {
      val f = spec.generate(test = true)
      val range = f.valueRange
      for (p <- Predictor.all) {
        val model = RQModel.build(f, p)
        val s = model.sample
        d.doubles(s.errors)
        d.long(s.patches.length.toLong)
        s.patches.foreach { patch => d.ints(patch.dims); d.doubles(patch.data) }
        d.long(s.sideBytes)
        d.double(s.errorStd)
        TableII.EbSweep.foreach(rel => updateEstimate(d, model.estimate(math.max(rel * range, 1e-300))))
        d.double(model.errorBoundForPsnr(60))
        d.double(model.errorBoundForBitRate(2.0))
        d.double(model.errorBoundForBitRate(2.0, withLossless = false))
        d.doubles(Sampler.fullErrors(f, p))
      }
    }
    val digest = d.md.digest().map(b => f"${b & 0xff}%02x").mkString
    assert(digest == Golden)
  }
}
