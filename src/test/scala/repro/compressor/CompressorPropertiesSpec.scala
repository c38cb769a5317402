package repro.compressor

import org.scalacheck.{Gen, Prop, Test}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.Field
import scala.collection.mutable

/** ScalaCheck properties of the table-driven compressor paths against their
  * per-point reference definitions.
  */
class CompressorPropertiesSpec extends AnyFunSuite {

  private def check(prop: Prop, minSuccessful: Int = 200): Unit = {
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(minSuccessful), prop)
    assert(res.passed, res.status.toString)
  }

  /** 1–4-D shapes whose extents include 1 and 2. */
  private val shapes: Gen[Array[Int]] = for {
    ndim <- Gen.choose(1, 4)
    dims <- Gen.listOfN(ndim, Gen.frequency(2 -> Gen.const(1), 2 -> Gen.const(2), 3 -> Gen.choose(3, 9)))
  } yield dims.toArray

  /** A shape with smooth-plus-noise values and an error bound; a few points
    * are huge so that some codes escape.
    */
  private val fields: Gen[(Field, Double)] = for {
    dims <- shapes
    seed <- Gen.long
    eb <- Gen.oneOf(1e-4, 1e-2, 0.3)
  } yield {
    val rnd = new java.util.Random(seed)
    val data = Array.tabulate(dims.product) { i =>
      if (rnd.nextInt(50) == 0) rnd.nextDouble() * 1e9 else math.sin(i * 0.3) + rnd.nextGaussian() * 0.05
    }
    (Field(data, dims), eb)
  }

  /** Lorenzo codes and reconstruction from [[LorenzoPredictor.predictAt]] and
    * [[Quantizer.quantize]], point by point on the recon buffer.
    */
  private def referenceLorenzo(f: Field, q: Quantizer): (Array[Int], Array[Double]) = {
    val recon = new Array[Double](f.size)
    val codes = new Array[Int](f.size)
    for (idx <- 0 until f.size) {
      val (code, rv) = q.quantize(LorenzoPredictor.predictAt(recon, f.coords(idx), f.dims, f.strides), f.data(idx))
      codes(idx) = code
      recon(idx) = rv
    }
    (codes, recon)
  }

  test("table-driven Lorenzo codes equal predictAt + quantize on every shape") {
    check(Prop.forAll(fields) { case (f, eb) =>
      val q = new Quantizer(eb)
      val out = LorenzoPredictor.compress(f, q)
      val (codes, recon) = referenceLorenzo(f, q)
      out.codes.sameElements(codes) && out.recon.data.sameElements(recon) &&
        LorenzoPredictor.decompress(f.dims, q, out.codes, out.unpredictable, out.side).data.sameElements(recon)
    })
  }

  /** Int streams mixing small codes, escapes, negatives and arbitrary Ints. */
  private val streams: Gen[Array[Int]] = Gen.nonEmptyListOf(Gen.frequency(
    6 -> Gen.choose(-3, 3),
    1 -> Gen.const(Quantizer.Escape),
    1 -> Gen.choose(-40000, -1),
    1 -> Gen.choose(Int.MinValue, Int.MaxValue),
  )).map(_.toArray)

  test("decode(encode(xs)) == xs for arbitrary Int streams") {
    check(Prop.forAll(streams)(xs => Huffman.decode(Huffman.encode(xs)).sameElements(xs)), 500)
  }

  test("dense counts iterate as a mutable.HashMap count of the stream does") {
    // codeLengths breaks weight ties by the map's iteration order
    check(Prop.forAll(streams) { xs =>
      val m = mutable.HashMap.empty[Int, Long]
      xs.foreach(s => m(s) = m.getOrElse(s, 0L) + 1)
      Frequencies.of(xs).toMap.toSeq == m.toMap.toSeq
    }, 500)
  }
}
