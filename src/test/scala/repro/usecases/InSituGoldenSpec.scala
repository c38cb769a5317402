package repro.usecases

import java.nio.ByteBuffer
import java.security.MessageDigest
import org.scalatest.funsuite.AnyFunSuite
import repro.compressor.LorenzoPredictor
import repro.core.{Field, RQModel}
import repro.data.SciData

/** Golden gate for the in-situ allocator: one SHA-256 over the raw bits of
  * the variance budget, [[InSitu.Allocation]]'s `ebs`, `estBits` and
  * `estVariance`, and the [[InSitu.uniformBaseline]] error bound, for two
  * cases:
  *
  *  - the 4 RTM partitions of [[InSituSpec]] with its 6-point grid and the
  *    budget of the grid's third bound;
  *  - the 8 RTM timesteps of [[repro.experiments.InSituExp]] at test dims,
  *    with its 25-point grid and its shared REL 2e-3 budget.
  *
  * The digest is a recorded constant: a change to the λ search, its
  * tie-breaking or summation order, or to any estimate it reads changes it.
  */
class InSituGoldenSpec extends AnyFunSuite {

  private val Golden = "e2cd81ee3c461e263eb4783bcee8bed9e9d58bbf0760f01bfab9070c3c67afb8"

  private final class Digest {
    val md: MessageDigest = MessageDigest.getInstance("SHA-256")
    private val bb = ByteBuffer.allocate(8)

    def long(v: Long): Unit = { bb.clear(); bb.putLong(v); md.update(bb.array()) }
    def double(v: Double): Unit = long(java.lang.Double.doubleToRawLongBits(v))
  }

  private def update(d: Digest, parts: Seq[Field], grids: Seq[Array[Double]],
      budget: Seq[RQModel] => Double): Unit = {
    val models = parts.map(f => RQModel.build(f, LorenzoPredictor))
    val vStar = budget(models)
    val alloc = InSitu.optimize(models, vStar, grids)
    d.double(vStar)
    d.long(alloc.ebs.length.toLong)
    alloc.ebs.foreach(d.double)
    d.double(alloc.estBits)
    d.double(alloc.estVariance)
    d.double(InSitu.uniformBaseline(models, vStar, grids.head))
  }

  test("allocations and uniform baselines match the golden digest") {
    val d = new Digest

    val parts4 = (0 until 4).map(i =>
      SciData.rtmSnapshot3d(800.0 + 600.0 * i)(Array(24, 32, 32), 77 + i))
    val grids4 = parts4.map(f =>
      Seq(1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2).map(_ * f.valueRange).toArray)
    update(d, parts4, grids4, models => models.zip(grids4).map { case (m, g) => m.estimate(g(2)).errVariance }.sum)

    val dims = SciData.byId("RTM", "2000").testDims
    val parts8 = (0 until 8).map(i => SciData.rtmSnapshot3d(200.0 + 3000.0 * i / 7)(dims, 77 + i))
    val grids8 = parts8.map { f =>
      (0 until 25).map(i => f.valueRange * 1e-4 * math.pow(10, 3.0 * i / 24)).toArray
    }
    update(d, parts8, grids8, models => models.zip(parts8).map { case (m, f) =>
      m.estimate(f.valueRange * 2e-3).errVariance
    }.sum)

    val digest = d.md.digest().map(b => f"${b & 0xff}%02x").mkString
    assert(digest == Golden)
  }
}
