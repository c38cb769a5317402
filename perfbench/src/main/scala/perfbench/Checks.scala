package perfbench

import repro.compressor.{CompressionResult, Compressor}
import repro.core.{Field, RQEstimate}
import repro.experiments.TableII
import repro.usecases.InSitu

/** Per-operation output checks. Each returns the failures it found; an empty
  * result means the operation's output is correct.
  */
object Checks {

  private def finite(x: Double): Boolean = !x.isNaN && !x.isInfinite

  /** A round trip through the blob: every point within the error bound, the
    * decoded field identical to the compressor's own reconstruction, and a
    * finite ratio above 1.
    */
  def roundTrip(orig: Field, eb: Double, res: CompressionResult, decoded: Field): Seq[String] = {
    val out = Seq.newBuilder[String]
    if (!java.util.Arrays.equals(orig.dims, decoded.dims))
      out += s"decoded dims ${decoded.dims.mkString("x")} != ${orig.dims.mkString("x")}"
    else {
      // the quantizer tolerates 1e-10 of relative rounding slack at the bound
      val err = Compressor.maxAbsError(orig, decoded)
      if (!(err <= eb * (1 + 1e-9))) out += s"max abs error $err exceeds eb $eb"
      if (!java.util.Arrays.equals(decoded.data, res.recon.data)) out += "decoded field differs from CompressionResult.recon"
    }
    val ratio = res.ratioHuffLL
    if (!finite(ratio) || ratio <= 1) out += s"ratio $ratio is not finite and > 1"
    out.result()
  }

  def estimate(est: RQEstimate): Seq[String] = {
    val values = Seq("p0" -> est.p0, "huffBitRate" -> est.huffBitRate, "llBitRate" -> est.llBitRate,
      "errVariance" -> est.errVariance, "psnr" -> est.psnr, "ssim" -> est.ssim)
    values.collect { case (k, v) if !finite(v) => s"estimate at eb ${est.eb}: $k = $v" }
  }

  def invertedEb(what: String, eb: Double): Seq[String] =
    if (finite(eb) && eb > 0) Nil else Seq(s"$what returned eb $eb")

  def allocation(alloc: InSitu.Allocation, budget: Double): Seq[String] = {
    val out = Seq.newBuilder[String]
    if (!(alloc.estVariance <= budget)) out += s"estVariance ${alloc.estVariance} exceeds budget $budget"
    alloc.ebs.foreach(e => out ++= invertedEb("InSitu.optimize", e))
    out.result()
  }

  /** The Table II result: one row per field, the paper's four rows without
    * SSIM, and finite averages.
    */
  def table2(res: TableII.Result, nFields: Int): Seq[String] = {
    val out = Seq.newBuilder[String]
    if (res.rows.length != nFields) out += s"${res.rows.length} rows, expected $nFields"
    val noSsim = res.rows.count(_.ssimErr.isEmpty)
    if (noSsim != 4) out += s"$noSsim rows without SSIM, expected 4"
    Seq("sample" -> res.avgSampleErr, "huff" -> res.avgHuffErr, "lossless" -> res.avgLosslessErr,
      "huffLL" -> res.avgHuffLLErr, "psnr" -> res.avgPsnrErr, "ssim" -> res.avgSsimErr).foreach {
      case (k, v) => if (!finite(v)) out += s"average $k error is $v"
    }
    out.result()
  }
}
