package repro.compressor

import scala.collection.mutable

/** Real Huffman codec over Int symbols (quantization codes).
  *
  * Builds the optimal prefix code from symbol frequencies, encodes to a bit
  * stream, and serializes a canonical codebook so `decode` is self-contained.
  * Codes are canonical (Moffat & Turpin, IEEE Trans. Comm. 1997): symbols
  * sorted by (length, symbol) take increasing code values, so a code is
  * fixed by its length table, and the decoder finds each code's length from
  * per-length first-code/count/offset tables instead of a symbol lookup.
  * `encodedBits` / `payloadBits` give the exact payload size without
  * materializing the stream (same lengths the encoder uses).
  */
object Huffman {

  /** Longest code length the stream format carries. */
  val MaxCodeLength: Int = 31

  /** symbol -> code length (bits) of the optimal prefix code.
    * Single-symbol alphabets get length 1 (a real stream needs ≥1 bit/symbol).
    */
  def codeLengths(freqs: Map[Int, Long]): Map[Int, Int] = {
    require(freqs.nonEmpty, "empty alphabet")
    require(freqs.valuesIterator.forall(_ > 0), "frequencies must be positive")
    if (freqs.size == 1) return Map(freqs.head._1 -> 1)

    // Standard two-queue-free approach: priority queue of (weight, node).
    final case class Node(weight: Long, symbols: List[Int])
    val pq = mutable.PriorityQueue.empty[Node](Ordering.by[Node, Long](_.weight).reverse)
    freqs.foreach { case (s, f) => pq.enqueue(Node(f, List(s))) }
    val depth = mutable.Map.empty[Int, Int].withDefaultValue(0)
    while (pq.size > 1) {
      val a = pq.dequeue(); val b = pq.dequeue()
      (a.symbols ++ b.symbols).foreach(s => depth(s) += 1)
      pq.enqueue(Node(a.weight + b.weight, a.symbols ++ b.symbols))
    }
    freqs.keysIterator.map(s => s -> depth(s)).toMap
  }

  /** Code length per slot of `freqs` (0 for slots that do not occur; all 0
    * for an empty stream, which encodes to an empty codebook).
    */
  def codeLengthsBySlot(freqs: Frequencies): Array[Int] = {
    val lens = new Array[Int](freqs.counts.length)
    if (freqs.distinct > 0) codeLengths(freqs.toMap).foreach { case (s, l) => lens(freqs.slot(s)) = l }
    lens
  }

  /** Exact total payload bits for the given frequencies (no codebook). */
  def encodedBits(freqs: Map[Int, Long]): Long = {
    val lens = codeLengths(freqs)
    freqs.iterator.map { case (s, f) => f * lens(s) }.sum
  }

  /** Exact total payload bits for dense counts and their code lengths. */
  def payloadBits(freqs: Frequencies, lens: Array[Int]): Long = {
    var bits = 0L
    var k = 0
    while (k < lens.length) { bits += freqs.counts(k) * lens(k); k += 1 }
    bits
  }

  /** First code value of each length 0..maxLen for `count(l)` codes of
    * length l (canonical assignment). Long, so that over-subscribed lengths
    * read from a corrupt stream cannot overflow.
    */
  private def firstCodes(count: Array[Int]): Array[Long] = {
    val first = new Array[Long](count.length)
    var l = 1
    while (l < count.length) { first(l) = (first(l - 1) + count(l - 1)) << 1; l += 1 }
    first
  }

  /** Canonical code value per slot for code lengths given in symbol order
    * (0 = absent): symbols sorted by (length, symbol) take increasing values.
    */
  private def canonical(lens: Array[Int]): Array[Int] = {
    val count = new Array[Int](lens.foldLeft(0)(math.max) + 1)
    lens.foreach(l => if (l > 0) count(l) += 1)
    val next = firstCodes(count).map(_.toInt)
    lens.map(l => if (l > 0) { val c = next(l); next(l) += 1; c } else 0)
  }

  /** Canonical codes (symbol -> (code, len)) from code lengths:
    * sort by (len, symbol), assign increasing code values.
    */
  def canonicalCodes(lengths: Map[Int, Int]): Map[Int, (Int, Int)] = {
    val syms = lengths.keys.toArray.sorted
    val lens = syms.map(lengths)
    val codes = canonical(lens)
    syms.indices.map(i => syms(i) -> (codes(i), lens(i))).toMap
  }

  /** Encoded blob: [numSymbols:int][symbol:int, len:byte]* [numCodes:int][payloadBits:long][payload bytes]. */
  def encode(symbols: Array[Int]): Array[Byte] = {
    val freqs = Frequencies.of(symbols)
    encode(symbols, freqs, codeLengthsBySlot(freqs))
  }

  /** [[encode]] with the counts and code lengths already computed. */
  def encode(symbols: Array[Int], freqs: Frequencies, lens: Array[Int]): Array[Byte] = {
    val codes = canonical(lens)
    val bits = payloadBits(freqs, lens)
    // codebook entries in canonical order: by length, then slot (= symbol) order
    val book = lens.indices.filter(lens(_) > 0).sortBy(lens(_)).toArray
    val header = codebookBytes(book.length)
    val out = new Array[Byte](header + ((bits + 7) / 8).toInt)
    val bb = java.nio.ByteBuffer.wrap(out)
    bb.putInt(book.length)
    book.foreach { k => bb.putInt(freqs.symbol(k)); bb.put(lens(k).toByte) }
    bb.putInt(symbols.length)
    bb.putLong(bits)

    var pos = header
    var acc = 0L
    var nbits = 0
    var i = 0
    while (i < symbols.length) {
      val k = freqs.slot(symbols(i))
      val l = lens(k)
      acc = (acc << l) | codes(k)
      nbits += l
      while (nbits >= 8) {
        nbits -= 8
        out(pos) = (acc >>> nbits).toByte
        pos += 1
      }
      i += 1
    }
    if (nbits > 0) out(pos) = (acc << (8 - nbits)).toByte
    out
  }

  private def corrupt(msg: String): Nothing =
    throw new IllegalArgumentException(s"corrupt Huffman stream: $msg")

  /** Decode a blob produced by [[encode]]. The blob is untrusted: every
    * length is checked against the bytes present before anything is
    * allocated, and a malformed stream throws `IllegalArgumentException`.
    */
  def decode(blob: Array[Byte]): Array[Int] = {
    val bb = java.nio.ByteBuffer.wrap(blob)
    if (bb.remaining < 4) corrupt("truncated codebook")
    val nsym = bb.getInt
    if (nsym < 0 || nsym.toLong * 5 + 12 > bb.remaining)
      corrupt(s"$nsym codebook entries do not fit in ${bb.remaining} bytes")
    // codebook, in canonical order: lengths non-decreasing, symbols increasing within a length
    val syms = new Array[Int](nsym)
    val count = new Array[Int](MaxCodeLength + 1)
    var maxLen = 0
    var k = 0
    while (k < nsym) {
      syms(k) = bb.getInt
      val l = bb.get.toInt
      if (l < 1 || l > MaxCodeLength) corrupt(s"code length $l")
      if (l < maxLen || (l == maxLen && syms(k) <= syms(k - 1))) corrupt("codebook not in canonical order")
      count(l) += 1
      maxLen = l
      k += 1
    }
    val ncodes = bb.getInt
    val payloadBits = bb.getLong
    if (payloadBits < 0 || payloadBits > 8L * bb.remaining)
      corrupt(s"$payloadBits payload bits in ${bb.remaining} bytes")
    if (ncodes < 0 || ncodes > payloadBits) corrupt(s"$ncodes codes in $payloadBits bits")
    if (ncodes > 0 && nsym == 0) corrupt(s"$ncodes codes without a codebook")
    val out = new Array[Int](ncodes)
    if (ncodes == 0) return out

    // Per length l: count(l) codes starting at value first(l), listed from
    // syms(offset(l)); limit(l) is the first maxLen-bit window above them.
    val first = firstCodes(count)
    val offset = new Array[Int](maxLen + 1)
    val limit = new Array[Long](maxLen + 2)
    var l = 1
    while (l <= maxLen) {
      if (l > 1) offset(l) = offset(l - 1) + count(l - 1)
      limit(l) = (first(l) + count(l)) << (maxLen - l)
      l += 1
    }
    limit(maxLen + 1) = Long.MaxValue
    if (limit(maxLen) > (1L << maxLen)) corrupt("code lengths over-subscribe the code space")
    // shortest length possible under each `tableBits`-bit prefix of a window
    val tableBits = math.min(maxLen, 10)
    val shift = maxLen - tableBits
    val startLen = new Array[Int](1 << tableBits)
    l = 1
    var p = 0
    while (p < startLen.length) {
      while ((p.toLong << shift) >= limit(l)) l += 1
      startLen(p) = l
      p += 1
    }

    val mask = (1L << maxLen) - 1
    var pos = bb.position()
    val end = pos + ((payloadBits + 7) / 8).toInt
    var acc = 0L
    var accBits = 0
    var left = payloadBits
    var i = 0
    while (i < ncodes) {
      while (accBits <= 56 && pos < end) {
        acc = (acc << 8) | (blob(pos) & 0xff)
        pos += 1
        accBits += 8
      }
      val w =
        if (accBits >= maxLen) (acc >>> (accBits - maxLen)) & mask
        else (acc << (maxLen - accBits)) & mask
      l = startLen((w >>> shift).toInt)
      while (w >= limit(l)) l += 1
      if (l > maxLen) corrupt(s"invalid code at symbol $i")
      if (l > left) corrupt(s"payload ends inside symbol $i")
      out(i) = syms(offset(l) + ((w >>> (maxLen - l)) - first(l)).toInt)
      accBits -= l
      left -= l
      i += 1
    }
    out
  }

  /** Serialized codebook size in bytes for `n` distinct symbols (our format). */
  def codebookBytes(nDistinct: Int): Int = 4 + nDistinct * 5 + 4 + 8
}
