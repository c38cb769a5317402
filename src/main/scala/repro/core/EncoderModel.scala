package repro.core

/** Analytical encoder-efficiency model (§III-C): Huffman bit-rate from the
  * quantization-code histogram (Eq. 1), and the optional lossless stage
  * estimated by the histogram's entropy floor.
  */
object EncoderModel {

  private[core] val Log2 = math.log(2.0)
  private def log2(x: Double): Double = math.log(x) / Log2

  /** Eq. 1: B = Σ P(s)·L(s) with L(s) ≈ −log₂P(s), clamped below at 1 bit
    * (no symbol can code in less than one bit). When the histogram comes from
    * a small sample, the plug-in entropy is biased low (tail codes are never
    * observed); `biasCorrect` adds the Miller–Madow correction
    * (K−1)/(2·m·ln 2).
    */
  def huffmanBitRate(hist: CodeHistogram, biasCorrect: Boolean = true): Double = {
    var b = 0.0
    hist.probabilities.foreach { case (_, p) =>
      if (p > 0) b += p * math.max(1.0, -log2(p))
    }
    if (biasCorrect && hist.distinct > 1)
      b += (hist.distinct - 1) / (2.0 * hist.total * Log2)
    b
  }

  /** Unclamped Shannon entropy of the code histogram (bits/point), with the
    * same Miller–Madow small-sample correction. This is the floor any
    * lossless stage can approach: Huffman alone loses the sub-1-bit entropy
    * of the dominant symbol to integer code lengths, and the dictionary/RLE
    * stage recovers it through runs — the paper's Fig. 3 observation that
    * "the optional lossless encoder only complements Huffman after it
    * reaches ~1 bit per symbol".
    */
  def entropyBitRate(hist: CodeHistogram, biasCorrect: Boolean = true): Double = {
    var b = 0.0
    hist.probabilities.foreach { case (_, p) => if (p > 0) b += p * -log2(p) }
    if (biasCorrect && hist.distinct > 1)
      b += (hist.distinct - 1) / (2.0 * hist.total * Log2)
    b
  }

  /** Bits/point after Huffman + modeled lossless stage: the entropy floor,
    * never above plain Huffman.
    */
  def bitRateWithLossless(hist: CodeHistogram): Double =
    bitRateWithLossless(hist, huffmanBitRate(hist))

  /** [[bitRateWithLossless]] given the histogram's [[huffmanBitRate]]. */
  def bitRateWithLossless(hist: CodeHistogram, huffBitRate: Double): Double =
    math.min(huffBitRate, entropyBitRate(hist))
}
