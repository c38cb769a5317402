package repro.compressor

import org.scalatest.funsuite.AnyFunSuite

class HuffmanSpec extends AnyFunSuite {

  private def entropyBits(freqs: Map[Int, Long]): Double = {
    val total = freqs.values.sum.toDouble
    freqs.values.map { f =>
      val p = f / total
      -f * math.log(p) / math.log(2)
    }.sum
  }

  test("single-symbol alphabet gets 1-bit codes") {
    assert(Huffman.codeLengths(Map(7 -> 100L)) == Map(7 -> 1))
  }

  test("two symbols get 1-bit codes regardless of skew") {
    val lens = Huffman.codeLengths(Map(0 -> 1000L, 1 -> 1L))
    assert(lens.values.toSet == Set(1))
  }

  test("uniform 4-symbol alphabet gets 2-bit codes") {
    val lens = Huffman.codeLengths(Map(0 -> 10L, 1 -> 10L, 2 -> 10L, 3 -> 10L))
    assert(lens.values.forall(_ == 2))
  }

  test("more frequent symbols never get longer codes") {
    val freqs = Map(0 -> 100L, 1 -> 50L, 2 -> 20L, 3 -> 5L, 4 -> 1L)
    val lens = Huffman.codeLengths(freqs)
    val ordered = freqs.toSeq.sortBy(-_._2).map { case (s, _) => lens(s) }
    assert(ordered == ordered.sorted)
  }

  test("Huffman total bits within [entropy, entropy + n] (redundancy < 1 bit/symbol)") {
    val rnd = new java.util.Random(3)
    (0 until 20).foreach { _ =>
      val nSym = 2 + rnd.nextInt(40)
      val freqs = (0 until nSym).map(s => s -> (1L + rnd.nextInt(1000).toLong)).toMap
      val total = freqs.values.sum
      val bits = Huffman.encodedBits(freqs)
      val h = entropyBits(freqs)
      assert(bits >= h - 1e-6, s"below entropy: $bits < $h")
      assert(bits <= h + total, s"redundancy above 1 bit/symbol")
    }
  }

  test("Kraft inequality holds for generated code lengths") {
    val rnd = new java.util.Random(4)
    (0 until 20).foreach { _ =>
      val nSym = 1 + rnd.nextInt(60)
      val freqs = (0 until nSym).map(s => s -> (1L + rnd.nextInt(500).toLong)).toMap
      val lens = Huffman.codeLengths(freqs)
      val kraft = lens.values.map(l => math.pow(2.0, -l)).sum
      assert(kraft <= 1.0 + 1e-9)
    }
  }

  test("canonical codes are prefix-free") {
    val freqs = Map(0 -> 50L, 1 -> 30L, 2 -> 10L, 3 -> 7L, 4 -> 2L, 5 -> 1L)
    val codes = Huffman.canonicalCodes(Huffman.codeLengths(freqs))
    val bitStrings = codes.values.map { case (c, l) =>
      String.format("%" + l + "s", Integer.toBinaryString(c)).replace(' ', '0')
    }.toSeq
    for (a <- bitStrings; b <- bitStrings if a != b) {
      assert(!b.startsWith(a), s"$a is a prefix of $b")
    }
  }

  test("roundtrip: skewed quantization-code-like stream") {
    val rnd = new java.util.Random(5)
    val symbols = Array.fill(5000) {
      val r = rnd.nextDouble()
      if (r < 0.7) 0 else if (r < 0.85) 1 else if (r < 0.95) -1 else rnd.nextInt(20) - 10
    }
    val blob = Huffman.encode(symbols)
    assert(Huffman.decode(blob).toSeq == symbols.toSeq)
  }

  test("roundtrip: single distinct symbol") {
    val symbols = Array.fill(100)(42)
    assert(Huffman.decode(Huffman.encode(symbols)).toSeq == symbols.toSeq)
  }

  test("roundtrip: includes the Escape sentinel symbol") {
    val symbols = Array(0, 0, Quantizer.Escape, 1, -1, 0, Quantizer.Escape)
    assert(Huffman.decode(Huffman.encode(symbols)).toSeq == symbols.toSeq)
  }

  test("roundtrip: negative and large-magnitude symbols") {
    val rnd = new java.util.Random(6)
    val symbols = Array.fill(2000)(rnd.nextInt(65536) - 32768)
    assert(Huffman.decode(Huffman.encode(symbols)).toSeq == symbols.toSeq)
  }

  test("roundtrip: length-1 input") {
    assert(Huffman.decode(Huffman.encode(Array(-3))).toSeq == Seq(-3))
  }

  test("encode blob size equals header + ceil(payloadBits/8)") {
    val symbols = Array.fill(1000)(0) ++ Array.fill(100)(1) ++ Array.fill(10)(2)
    val freqs = symbols.groupBy(identity).map { case (s, a) => s -> a.length.toLong }
    val blob = Huffman.encode(symbols)
    val expected = Huffman.codebookBytes(freqs.size) + ((Huffman.encodedBits(freqs) + 7) / 8).toInt
    assert(blob.length == expected)
  }

  test("encodedBits matches actual encoded payload length") {
    val rnd = new java.util.Random(7)
    val symbols = Array.fill(3000)(rnd.nextInt(10))
    val freqs = symbols.groupBy(identity).map { case (s, a) => s -> a.length.toLong }
    val blob = Huffman.encode(symbols)
    val payloadBytes = blob.length - Huffman.codebookBytes(freqs.size)
    assert(payloadBytes == ((Huffman.encodedBits(freqs) + 7) / 8).toInt)
  }

  test("rejects empty alphabet") {
    intercept[IllegalArgumentException](Huffman.codeLengths(Map.empty))
  }

  test("rejects non-positive frequencies") {
    intercept[IllegalArgumentException](Huffman.codeLengths(Map(1 -> 0L)))
  }

  test("a stream truncated at any length decodes to the original or is rejected") {
    val rnd = new java.util.Random(11)
    val symbols = Array.fill(400) {
      val r = rnd.nextDouble()
      if (r < 0.6) 0 else if (r < 0.9) rnd.nextInt(7) - 3 else if (r < 0.95) Quantizer.Escape else rnd.nextInt(2000) - 1000
    }
    val blob = Huffman.encode(symbols)
    for (len <- 0 to blob.length) {
      val cut = java.util.Arrays.copyOf(blob, len)
      try assert(Huffman.decode(cut).toSeq == symbols.toSeq, s"length $len")
      catch { case _: IllegalArgumentException => assert(len < blob.length, s"full blob rejected") }
    }
  }

  /** The blob of `symbols` with a 4- or 8-byte header field overwritten. */
  private def patched(symbols: Array[Int], at: Int => Int, value: Long, longField: Boolean = false): Array[Byte] = {
    val blob = Huffman.encode(symbols)
    val bb = java.nio.ByteBuffer.wrap(blob)
    val nsym = bb.getInt(0)
    if (longField) bb.putLong(at(nsym), value) else bb.putInt(at(nsym), value.toInt)
    blob
  }

  test("decode rejects malformed headers with IllegalArgumentException") {
    val symbols = Array(0, 0, 1, -1, 0, 2, 0, 0, 1)
    val ncodesAt = (nsym: Int) => 4 + 5 * nsym
    val bad = Seq(
      "codebook larger than the blob" -> patched(symbols, _ => 0, Int.MaxValue),
      "negative codebook size" -> patched(symbols, _ => 0, -1),
      "more codes than payload bits" -> patched(symbols, ncodesAt, 1000),
      "negative code count" -> patched(symbols, ncodesAt, -5),
      "payload bits beyond the payload" -> patched(symbols, n => ncodesAt(n) + 4, 1L << 40, longField = true),
      "negative payload bits" -> patched(symbols, n => ncodesAt(n) + 4, -1, longField = true),
    )
    bad.foreach { case (what, blob) => intercept[IllegalArgumentException](Huffman.decode(blob)); info(what) }
  }

  test("decode rejects code lengths outside 1..31") {
    val symbols = Array(0, 0, 1, -1, 0, 2, 0, 0, 1)
    Seq(0, 32, -1).foreach { l =>
      val blob = Huffman.encode(symbols)
      blob(4 + 4) = l.toByte // length byte of the first codebook entry
      intercept[IllegalArgumentException](Huffman.decode(blob))
    }
  }
}
