package repro.compressor

import scala.collection.mutable

/** Symbol counts of a code stream, one per slot, counted once and
  * shared by the code lengths, the payload size, the encoder and RLE.
  *
  * Slots are in symbol order. Quantization codes lie within ±radius, so the
  * dense layout gives slot 0 to [[Quantizer.Escape]] (`Int.MinValue`, the
  * smallest `Int`) and slot `s - lo + 1` to any other symbol `s`: one
  * subtraction per lookup. A stream whose symbols span much more than its
  * length (arbitrary `Int`s) gets the sparse layout instead: one slot per
  * distinct symbol, found by binary search.
  *
  * @param lo     smallest non-escape symbol (dense layout)
  * @param keys   the distinct symbols in slot order (sparse layout), else null
  * @param counts occurrences per slot
  */
final class Frequencies private (lo: Int, keys: Array[Int], val counts: Array[Long]) {

  /** Slot of `s`, which must occur in the stream. */
  def slot(s: Int): Int =
    if (keys != null) java.util.Arrays.binarySearch(keys, s)
    else if (s == Quantizer.Escape) 0
    else s - lo + 1

  /** Symbol of `slot`. */
  def symbol(slot: Int): Int =
    if (keys != null) keys(slot)
    else if (slot == 0) Quantizer.Escape
    else slot - 1 + lo

  /** Occurrences of `s` (0 when `s` is outside the counted range). */
  def count(s: Int): Long = {
    val inRange = keys != null || s == Quantizer.Escape || (s >= lo && s.toLong - lo + 1 < counts.length)
    val i = if (inRange) slot(s) else -1
    if (i >= 0) counts(i) else 0L
  }

  /** Number of distinct symbols. */
  def distinct: Int = counts.count(_ > 0)

  /** Symbol -> count. [[Huffman.codeLengths]] breaks weight ties by the
    * map's iteration order, which for up to 4 symbols is insertion order;
    * inserting through a `mutable.HashMap` makes that order a function of the
    * symbol set alone.
    */
  def toMap: Map[Int, Long] = {
    val m = mutable.HashMap.empty[Int, Long]
    var i = 0
    while (i < counts.length) {
      if (counts(i) > 0) m(symbol(i)) = counts(i)
      i += 1
    }
    m.toMap
  }
}

object Frequencies {

  /** Count `symbols` in one pass (two when the alphabet is sparse). */
  def of(symbols: Array[Int]): Frequencies = {
    var lo = Int.MaxValue
    var hi = Int.MinValue
    var i = 0
    while (i < symbols.length) {
      val s = symbols(i)
      if (s != Quantizer.Escape) {
        if (s < lo) lo = s
        if (s > hi) hi = s
      }
      i += 1
    }
    val span = if (lo > hi) 0L else hi.toLong - lo + 1
    if (span <= math.max(1L << 16, 2L * symbols.length)) {
      val counts = new Array[Long](span.toInt + 1)
      i = 0
      while (i < symbols.length) {
        val s = symbols(i)
        counts(if (s == Quantizer.Escape) 0 else s - lo + 1) += 1
        i += 1
      }
      new Frequencies(lo, null, counts)
    } else {
      val sorted = symbols.clone()
      java.util.Arrays.sort(sorted)
      val keys = Array.newBuilder[Int]
      val counts = Array.newBuilder[Long]
      i = 0
      while (i < sorted.length) {
        var j = i
        while (j < sorted.length && sorted(j) == sorted(i)) j += 1
        keys += sorted(i)
        counts += (j - i).toLong
        i = j
      }
      new Frequencies(0, keys.result(), counts.result())
    }
  }
}
