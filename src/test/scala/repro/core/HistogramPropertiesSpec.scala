package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalatest.funsuite.AnyFunSuite
import repro.compressor.{LorenzoPredictor, Quantizer}
import scala.collection.mutable

/** ScalaCheck properties of the model's dense code counting against a boxed
  * `mutable.Map` count. Iteration order is part of the contract: the encoder
  * model sums over the histogram in map order.
  */
class HistogramPropertiesSpec extends AnyFunSuite {

  private def check(prop: Prop, minSuccessful: Int = 200): Unit = {
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(minSuccessful), prop)
    assert(res.passed, res.status.toString)
  }

  /** Reference count: one boxed map update per code. */
  private def referenceCount(codes: Iterator[Int]): Seq[(Int, Long)] = {
    val m = mutable.Map.empty[Int, Long].withDefaultValue(0L)
    codes.foreach(c => m(c) += 1)
    m.toMap.toSeq
  }

  private val ebs: Gen[Double] = Gen.choose(-9.0, 3.0).map(math.pow(10, _))

  /** Errors mixing small multiples of the bound with NaN, ±Inf and values far
    * past any radius.
    */
  private val errorArrays: Gen[Array[Double]] = Gen.nonEmptyListOf(Gen.frequency(
    8 -> Gen.choose(-1.0, 1.0),
    3 -> Gen.choose(-1e3, 1e3),
    1 -> Gen.oneOf(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity),
    1 -> Gen.choose(-1e300, 1e300),
  )).map(_.toArray)

  test("fromErrors counts iterate as a boxed mutable.Map count does") {
    val cases = for {
      errors <- errorArrays
      eb <- ebs
      radius <- Gen.oneOf(Gen.const(32768), Gen.choose(2, 100))
    } yield (errors, eb, radius)
    check(Prop.forAll(cases) { case (errors, eb, radius) =>
      val h = Histogram.fromErrors(errors, eb, radius)
      val ref = referenceCount(errors.iterator.map { e =>
        val c = math.rint(e / (2 * eb))
        if (c.isNaN || math.abs(c) >= radius) Quantizer.Escape else c.toInt
      })
      h.total == errors.length && h.counts.toSeq == ref
    }, 500)
  }

  /** One to four patches of 1–3-D shapes with extents 1, 2 and 3–6; a few
    * points are huge so that some codes escape.
    */
  private val patchSets: Gen[Array[SamplePatch]] = {
    val patch = for {
      ndim <- Gen.choose(1, 3)
      dims <- Gen.listOfN(ndim, Gen.frequency(1 -> Gen.const(1), 1 -> Gen.const(2), 3 -> Gen.choose(3, 6)))
      seed <- Gen.long
    } yield {
      val rnd = new java.util.Random(seed)
      val data = Array.tabulate(dims.product) { i =>
        if (rnd.nextInt(40) == 0) rnd.nextDouble() * 1e9 else math.sin(i * 0.4) + rnd.nextGaussian() * 0.05
      }
      SamplePatch(data, dims.toArray)
    }
    Gen.choose(1, 4).flatMap(n => Gen.listOfN(n, patch)).map(_.toArray)
  }

  /** Codes of each patch replayed point by point with
    * [[LorenzoPredictor.predictAt]] and [[Quantizer.quantize]] on a recon
    * buffer seeded with the patch; halo points are not coded.
    */
  private def referenceCodes(patches: Array[SamplePatch], q: Quantizer): Iterator[Int] =
    patches.iterator.flatMap { p =>
      val f = Field(p.data, p.dims)
      val recon = p.data.clone()
      (0 until f.size).iterator.flatMap { idx =>
        val c = f.coords(idx)
        if (c.indices.forall(d => f.dims(d) == 1 || c(d) >= 1)) {
          val (code, rv) = q.quantize(LorenzoPredictor.predictAt(recon, c, f.dims, f.strides), p.data(idx))
          recon(idx) = rv
          Some(code)
        } else None
      }
    }

  test("PatchSim histograms iterate as a boxed count of a predictAt + quantize replay") {
    val cases = for {
      patches <- patchSets
      eb <- Gen.oneOf(1e-4, 1e-2, 0.3)
    } yield (patches, eb)
    check(Prop.forAll(cases) { case (patches, eb) =>
      val ref = referenceCount(referenceCodes(patches, new Quantizer(eb)))
      val hist = PatchSim.simulate(patches, eb).hist
      hist.total == ref.map(_._2).sum && hist.counts.toSeq == ref
    }, 300)
  }
}
