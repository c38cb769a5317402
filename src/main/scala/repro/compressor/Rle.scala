package repro.compressor

/** Zero-run run-length encoding over quantization codes.
  *
  * The paper (§III-C2) models the optional lossless stage after Huffman as
  * RLE over the dominant zero codes: the predictor decorrelates the data, so
  * the only exploitable redundancy left in the Huffman stream is runs of the
  * 1-bit zero code. This object gives the exact post-RLE bit count, the
  * measured "Huffman + RLE" size.
  */
object Rle {

  /** Bits used to store one zero-run length (the paper's C1). */
  val RunLengthBits: Int = 8

  /** Maximum run collapsed into one token (limited by RunLengthBits). */
  val MaxRun: Int = (1 << RunLengthBits) - 1

  /** Exact size in bits of the Huffman stream after replacing each maximal
    * zero run by a C1-bit run token, with non-zero symbols keeping their
    * Huffman code lengths. This is the measured counterpart of Eq. (4).
    *
    * @param lengths code length per slot of `freqs`, the counts of `codes`
    */
  def bitsAfterZeroRunRle(codes: Array[Int], freqs: Frequencies, lengths: Array[Int]): Long = {
    var bits = 0L
    var i = 0
    while (i < codes.length) {
      if (codes(i) == 0) {
        var run = 0
        while (i < codes.length && codes(i) == 0 && run < MaxRun) { run += 1; i += 1 }
        bits += RunLengthBits
      } else {
        bits += lengths(freqs.slot(codes(i)))
        i += 1
      }
    }
    bits
  }

  /** [[bitsAfterZeroRunRle]] with the code lengths as a symbol -> length map;
    * every non-zero symbol of `codes` must have a length.
    */
  def bitsAfterZeroRunRle(codes: Array[Int], huffLengths: Map[Int, Int]): Long = {
    val freqs = Frequencies.of(codes)
    val lengths = Array.tabulate(freqs.counts.length) { k =>
      val s = freqs.symbol(k)
      if (freqs.counts(k) == 0 || s == 0) 0 else huffLengths(s)
    }
    bitsAfterZeroRunRle(codes, freqs, lengths)
  }
}
