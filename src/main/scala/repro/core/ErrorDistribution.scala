package repro.core

/** Compression-error distribution model (§III-E1).
  *
  * Non-central quantization bins reconstruct to the bin center, leaving a
  * near-uniform residual in [−e, e] (variance e²/3, Eq. 10). At high error
  * bounds the central bin dominates and its points keep their *prediction*
  * error as the compression error, so the mixture Eq. 11 applies:
  * σ(E)² = (1−p0)·e²/3 + p0·Var(central-bin errors).
  */
object ErrorDistribution {

  /** Eq. 10: variance of a uniform error distribution in [−e, e]. */
  def uniformVariance(e: Double): Double = e * e / 3.0

  /** Variance of sampled prediction errors that fall inside the central bin
    * (|err| ≤ e) — the σ(B[0]) term of Eq. 11, computable from the one-time
    * sample.
    */
  def centralBinVariance(errors: Array[Double], e: Double): Double = {
    var s = 0.0
    var s2 = 0.0
    var n = 0
    var i = 0
    while (i < errors.length) {
      val x = errors(i)
      if (math.abs(x) <= e) { s += x; s2 += x * x; n += 1 }
      i += 1
    }
    if (n == 0) uniformVariance(e)
    else {
      val mu = s / n
      math.max(0.0, s2 / n - mu * mu)
    }
  }

  /** Eq. 11: mixed error-distribution variance. */
  def mixedVariance(e: Double, p0: Double, centralVar: Double): Double =
    (1 - p0) * uniformVariance(e) + p0 * centralVar
}
