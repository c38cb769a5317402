package repro.core

import repro.compressor.{Frequencies, Quantizer}

/** Quantization-code histogram (§III-D) — the interface between the predictor
  * module (sampled prediction errors) and the encoder module (bit-rate
  * estimation).
  *
  * @param counts code -> count ([[Quantizer.Escape]] appears
  *               as its own symbol for out-of-range codes)
  * @param total  total number of sampled codes
  */
final case class CodeHistogram(counts: Map[Int, Long], total: Long) {
  require(total > 0, "empty histogram")

  /** Fraction of zero codes (the paper's p0). */
  def p0: Double = counts.getOrElse(0, 0L).toDouble / total

  /** Probability of each code. */
  lazy val probabilities: Map[Int, Double] = counts.map { case (c, n) => c -> n.toDouble / total }

  def distinct: Int = counts.size
}

object Histogram {

  /** Quantize sampled prediction errors at error bound `eb` into a code
    * histogram (linear-scaling quantization, same escape radius as the real
    * quantizer).
    */
  def fromErrors(errors: Array[Double], eb: Double, radius: Int = 32768): CodeHistogram = {
    require(eb > 0, "error bound must be positive")
    val codes = new Array[Int](errors.length)
    val interval = 2 * eb
    var i = 0
    while (i < errors.length) {
      val c = math.rint(errors(i) / interval)
      codes(i) = if (c.isNaN || math.abs(c) >= radius) Quantizer.Escape else c.toInt
      i += 1
    }
    CodeHistogram(Frequencies.of(codes).toMap, errors.length.toLong)
  }
}
