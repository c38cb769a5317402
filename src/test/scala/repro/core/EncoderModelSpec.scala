package repro.core

import org.scalatest.funsuite.AnyFunSuite

class EncoderModelSpec extends AnyFunSuite {

  private def hist(counts: (Int, Long)*): CodeHistogram =
    CodeHistogram(counts.toMap, counts.map(_._2).sum)

  test("Eq. 1: uniform alphabet of 2^k symbols gives ~k bits") {
    val h = hist((0 until 16).map(i => i -> 10L): _*)
    val b = EncoderModel.huffmanBitRate(h, biasCorrect = false)
    assert(math.abs(b - 4.0) < 1e-9)
  }

  test("Eq. 1: dominant symbol clamps at 1 bit") {
    val h = hist(0 -> 999L, 1 -> 1L)
    val b = EncoderModel.huffmanBitRate(h, biasCorrect = false)
    // 0.999·1 (clamped) + 0.001·log2(1000)
    assert(b >= 0.999 && b < 1.2)
  }

  test("bit-rate decreases as distribution concentrates") {
    val spread = hist((0 until 64).map(i => i -> 10L): _*)
    val tight = hist(0 -> 600L, 1 -> 20L, -1 -> 20L)
    assert(EncoderModel.huffmanBitRate(tight) < EncoderModel.huffmanBitRate(spread))
  }

  test("Miller–Madow correction adds (K−1)/(2m·ln2)") {
    val h = hist((0 until 11).map(i => i -> 1L): _*)
    val plain = EncoderModel.huffmanBitRate(h, biasCorrect = false)
    val corr = EncoderModel.huffmanBitRate(h)
    assert(math.abs((corr - plain) - 10 / (2.0 * 11 * math.log(2))) < 1e-12)
  }

  test("bitRateWithLossless never exceeds the Huffman bit-rate") {
    val rnd = new java.util.Random(22)
    (0 until 20).foreach { _ =>
      val nz = rnd.nextInt(5)
      val counts = (0 to nz).map(i => i -> (1L + rnd.nextInt(1000))).toMap
      val h = CodeHistogram(counts, counts.values.sum)
      assert(EncoderModel.bitRateWithLossless(h) <= EncoderModel.huffmanBitRate(h) + 1e-12)
    }
  }
}
