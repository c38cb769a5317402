package repro.core

/** Quantization-code histogram (§III-D) — the interface between the predictor
  * module (sampled prediction errors) and the encoder module (bit-rate
  * estimation).
  *
  * @param counts code -> count ([[repro.compressor.Quantizer.Escape]] appears
  *               as its own symbol for out-of-range codes)
  * @param total  total number of sampled codes
  */
final case class CodeHistogram(counts: Map[Int, Long], total: Long) {
  require(total > 0, "empty histogram")

  /** Fraction of zero codes (the paper's p0). */
  def p0: Double = counts.getOrElse(0, 0L).toDouble / total

  /** Probability of each code. */
  def probabilities: Map[Int, Double] = counts.map { case (c, n) => c -> n.toDouble / total }

  def distinct: Int = counts.size
}

object Histogram {

  /** Quantize sampled prediction errors at error bound `eb` into a code
    * histogram (linear-scaling quantization, same escape radius as the real
    * quantizer).
    */
  def fromErrors(errors: Array[Double], eb: Double, radius: Int = 32768): CodeHistogram = {
    require(eb > 0, "error bound must be positive")
    val m = scala.collection.mutable.Map.empty[Int, Long].withDefaultValue(0L)
    val interval = 2 * eb
    var i = 0
    while (i < errors.length) {
      val c = math.rint(errors(i) / interval)
      val code = if (c.isNaN || math.abs(c) >= radius) repro.compressor.Quantizer.Escape else c.toInt
      m(code) += 1
      i += 1
    }
    CodeHistogram(m.toMap, errors.length.toLong)
  }
}
