package repro.core

import repro.compressor.{InterpolationPredictor, LorenzoPredictor, Predictor, RegressionPredictor}

/** A sampled patch: a small block of original values with a one-layer halo on
  * the low side of every dimension (the halo seeds the recon buffer, so a
  * patch-local compression simulation sees realistic borders).
  */
final case class SamplePatch(data: Array[Double], dims: Array[Int])

/** A 1 % (configurable) sample of prediction errors plus the field summary
  * statistics the ratio-quality model needs. Produced once per
  * (field, predictor); every estimate for any error bound derives from it
  * (§III-D: "one-time sampling and efficient estimation").
  *
  * @param predictor   predictor name the errors correspond to
  * @param errors      sampled prediction errors (predicted − actual, on
  *                    original values, per §III-D4)
  * @param sampleRate  requested sampling rate
  * @param totalPoints points in the full field
  * @param range       value range of the full field (max − min)
  * @param variance    variance of the full field (for the SSIM model)
  * @param sideBytes   predictor side-channel bytes the real compressor will
  *                    spend (anchors / regression coefficients) — known
  *                    exactly from dims, used for whole-size estimates
  */
final case class PredictionErrorSample(
    predictor: String,
    errors: Array[Double],
    sampleRate: Double,
    totalPoints: Int,
    range: Double,
    variance: Double,
    sideBytes: Long,
    ndim: Int,
    patches: Array[SamplePatch] = Array.empty,
) {
  require(errors.nonEmpty, "empty prediction-error sample")

  /** |errors| sorted ascending — quantile lookups for the p0 anchors. */
  lazy val absSorted: Array[Double] = {
    val a = errors.map(math.abs)
    java.util.Arrays.sort(a)
    a
  }

  /** Error magnitude below which a fraction `p` of points falls (the central
    * bin half-width that yields p0 = p, §III-C1's anchor profiling).
    */
  def absQuantile(p: Double): Double = {
    val i = math.min(absSorted.length - 1, math.max(0, (p * absSorted.length).toInt))
    absSorted(i)
  }

  /** Std-dev of the sampled prediction errors (sampling-accuracy metric of
    * Fig. 4 / Table II "Sample Err" compares this against the full scan).
    */
  def errorStd: Double = PredictionErrorSample.std(errors)
}

object PredictionErrorSample {

  /** Population standard deviation of `a` (0 when empty). */
  def std(a: Array[Double]): Double = {
    if (a.isEmpty) return 0.0
    val n = a.length
    var mu = 0.0
    var i = 0
    while (i < n) { mu += a(i); i += 1 }
    mu /= n
    var s = 0.0
    i = 0
    while (i < n) { val d = a(i) - mu; s += d * d; i += 1 }
    math.sqrt(s / n)
  }
}

/** Per-predictor sampling strategies (§III-D). All predict from *original*
  * values — the paper's observation III-D4 is that the error distribution
  * differs little from the reconstruction-based one, and the high-error-bound
  * discrepancy is handled by the Eq. 9 correction layer.
  */
object Sampler {

  val DefaultRate = 0.01

  def sample(field: Field, predictor: Predictor, rate: Double = DefaultRate, seed: Long = 42L): PredictionErrorSample =
    predictor match {
      case LorenzoPredictor       => lorenzo(field, rate, seed)
      case InterpolationPredictor => interpolation(field, rate, seed)
      case RegressionPredictor    => regression(field, rate, seed)
      case p                      => throw new IllegalArgumentException(s"no sampling strategy for ${p.name}")
    }

  /** Minimum sample count: below this the plug-in entropy estimate is too
    * biased even with the Miller–Madow correction. Small fields simply get a
    * higher effective rate.
    */
  val MinSamples = 1024

  /** Patch edge for the Lorenzo block sampler (SZ3 samples structured data
    * blocks, §V-D); big enough that patch-local reconstruction feedback
    * (drift, denoising) shows, small enough that ~1 % sampling still yields
    * tens of patches.
    */
  def patchEdge(ndim: Int): Int = ndim match {
    case 1 => 128
    case 2 => 12
    case 3 => 6
    case _ => 4
  }

  /** Lorenzo: random structured blocks (SZ3-style, §III-D1). The per-point
    * prediction errors on original values feed the Fig. 4 sampling-accuracy
    * metric and the anchor quantiles; the raw patches (with a low-side halo)
    * let the model simulate the quantizer with reconstruction feedback per
    * error bound (§III-D4) instead of guessing the feedback analytically.
    */
  def lorenzo(field: Field, rate: Double, seed: Long): PredictionErrorSample = {
    val rnd = new java.util.Random(seed)
    val n = field.size
    val m = math.min(n, math.max(MinSamples, (n * rate).toInt))
    val ndim = field.ndim
    val edge = patchEdge(ndim)
    // patch extent including the low-side halo, clamped to the field extent
    val ext = field.dims.map(d => math.min(d, edge + 1))
    // interior points per patch: all but the halo
    val vol = math.max(1, ext.map(e => math.max(1, e - 1)).product)
    val k = math.max(4, (m + vol - 1) / vol)
    val stencil = new LorenzoPredictor.Stencil(Field.strides(ext))
    val nx = ext(ndim - 1)
    val x0 = if (nx > 1) 1 else 0
    val errors = new Array[Double](k * vol)
    var e = 0
    val patches = Array.tabulate(k) { _ =>
      val lo = Array.tabulate(ndim)(d => rnd.nextInt(field.dims(d) - ext(d) + 1))
      val data = new Array[Double](ext.product)
      var i = 0
      RegressionPredictor.foreachPointInBlock(field, lo, Array.tabulate(ndim)(d => lo(d) + ext(d))) { (idx, _) =>
        data(i) = field.data(idx)
        i += 1
      }
      // the original-value prediction error at each interior point
      LorenzoPredictor.foreachInteriorRow(ext) { (start, present) =>
        var x = x0
        while (x < nx) {
          val idx = start + x
          errors(e) = data(idx) - stencil.predict(data, idx, present, x)
          e += 1
          x += 1
        }
      }
      SamplePatch(data, ext.clone())
    }
    PredictionErrorSample(LorenzoPredictor.name, errors, rate, field.size,
      field.valueRange, field.variance, 0L, ndim, patches)
  }

  /** Interpolation: walk the level/dim traversal and accept each non-anchor
    * point with probability `rate`; because level populations shrink by 2^-n
    * per level, this realizes the paper's per-level sampling-rate scaling
    * (§III-D2) while staying deterministic.
    */
  def interpolation(field: Field, rate: Double, seed: Long): PredictionErrorSample = {
    val rnd = new java.util.Random(seed)
    val effRate = math.max(rate, MinSamples.toDouble / field.size)
    val errors = interpolationErrors(field, () => rnd.nextDouble() < effRate)
    PredictionErrorSample(InterpolationPredictor.name, if (errors.isEmpty) Array(0.0) else errors, rate,
      field.size, field.valueRange, field.variance, InterpolationPredictor.sideBytes(field.dims), field.ndim)
  }

  /** Regression: sample whole blocks (the fit needs the block, §III-D3),
    * fit each sampled block on original values and collect its residuals.
    */
  def regression(field: Field, rate: Double, seed: Long): PredictionErrorSample = {
    val rnd = new java.util.Random(seed)
    var nBlocks = 0
    RegressionPredictor.foreachBlock(field.dims, RegressionPredictor.blockEdge(field.ndim)) { (_, _) => nBlocks += 1 }
    // sample a fixed subset of block indices: enough blocks for a
    // representative histogram even on small fields (§III-D3 relies on the
    // block unit being small relative to the data)
    val pointsPerBlock = math.max(1, field.size / nBlocks)
    val wanted = math.min(nBlocks,
      math.max(math.max(8, MinSamples / pointsPerBlock), math.ceil(rate * nBlocks).toInt))
    val chosen = new java.util.HashSet[Integer]()
    while (chosen.size < wanted) chosen.add(rnd.nextInt(nBlocks))
    PredictionErrorSample(RegressionPredictor.name, regressionErrors(field, chosen.contains(_)), rate,
      field.size, field.valueRange, field.variance, RegressionPredictor.sideBytes(field.dims), field.ndim)
  }

  /** Full-scan reference errors (used only by tests/benches to quantify the
    * sampling error of Fig. 4 — never by the model itself).
    */
  def fullErrors(field: Field, predictor: Predictor): Array[Double] = predictor match {
    case LorenzoPredictor =>
      val data = field.data
      val out = new Array[Double](field.size)
      val stencil = new LorenzoPredictor.Stencil(field.strides)
      val nx = field.dims(field.ndim - 1)
      LorenzoPredictor.foreachRow(field.dims) { (start, present) =>
        var x = 0
        while (x < nx) {
          val idx = start + x
          out(idx) = data(idx) - stencil.predict(data, idx, present, x)
          x += 1
        }
      }
      out
    case InterpolationPredictor => interpolationErrors(field, () => true)
    case RegressionPredictor    => regressionErrors(field, _ => true)
    case p => throw new IllegalArgumentException(s"no full-error scan for ${p.name}")
  }

  /** Original-value interpolation errors at the non-anchor points `take()`
    * accepts, in traversal order.
    */
  private def interpolationErrors(field: Field, take: () => Boolean): Array[Double] = {
    val buf = new scala.collection.mutable.ArrayBuilder.ofDouble
    InterpolationPredictor.traverse(field.dims) { (idx, isAnchor, p1, p2) =>
      if (!isAnchor && take()) buf += field.data(idx) - InterpolationPredictor.predict(field.data, p1, p2)
    }
    buf.result()
  }

  /** Regression residuals of the blocks whose row-major index `take` accepts. */
  private def regressionErrors(field: Field, take: Int => Boolean): Array[Double] = {
    val buf = new scala.collection.mutable.ArrayBuilder.ofDouble
    var bi = 0
    RegressionPredictor.foreachBlock(field.dims, RegressionPredictor.blockEdge(field.ndim)) { (lo, hi) =>
      if (take(bi)) RegressionPredictor.predictBlock(field, lo, hi) { (idx, pred) => buf += field.data(idx) - pred }
      bi += 1
    }
    buf.result()
  }

}
