package perfbench

import repro.core.Field
import repro.data.{SciData, SciField}

/** Workload inputs, generated from the workload seed through the program's
  * own generators. Seed 0 keeps the registry's seeds, so the default inputs
  * are exactly the fields the repository's tables and figures use.
  */
object Inputs {

  val DefaultSeed = 0L

  /** Field seeds move by this stride per workload seed, far beyond the
    * registry's own seed spacing, so no two fields ever share a seed.
    */
  private val SeedStride = 1000003L

  def reseed(spec: SciField, seed: Long): SciField =
    if (seed == DefaultSeed) spec else spec.copy(seed = spec.seed + seed * SeedStride)

  /** The 17 Table II fields. */
  def specs(seed: Long): Seq[SciField] = SciData.fields.map(reseed(_, seed))

  /** `archive` fields: one per dimensionality (RTM 3-D, CESM 2-D, HACC 1-D,
    * EXAFEL 4-D) at bench dims, plus RTM/2000 at twice its bench extent per
    * dimension, whose 28 MB of doubles exceed the per-core L2 many times over.
    */
  val ArchiveIds: Seq[(String, String)] = Seq("RTM" -> "2000", "CESM" -> "TS", "HACC" -> "vx", "EXAFEL" -> "raw")
  val BigLabel = "RTM/2000@2x"

  def archiveFields(seed: Long): Seq[(String, Field)] = {
    val small = ArchiveIds.map { case (ds, f) =>
      val spec = reseed(SciData.byId(ds, f), seed)
      spec.id -> spec.generate()
    }
    val rtm = reseed(SciData.byId("RTM", "2000"), seed)
    small :+ (BigLabel -> rtm.gen(rtm.benchDims.map(_ * 2), rtm.seed))
  }

  /** The 8 RTM timesteps of the in-situ experiment (Figs. 12–13), with the
    * timestep seeds it uses moved by the workload seed. They are at test
    * dims: one allocation then takes ~4 s instead of ~13 s, so a run holds
    * several.
    */
  val InSituSteps = 8

  def inSituParts(seed: Long): Seq[Field] = {
    val dims = SciData.byId("RTM", "2000").testDims
    (0 until InSituSteps).map { i =>
      SciData.rtmSnapshot3d(200.0 + 3000.0 * i / (InSituSteps - 1))(dims, 77 + i + seed * SeedStride)
    }
  }
}
