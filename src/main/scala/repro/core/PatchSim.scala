package repro.core

import repro.compressor.{Frequencies, LorenzoPredictor, Quantizer}

/** Patch-local compression simulation (the refined correction layer of
  * §III-D4, in the shape of SZ3's own block sampler §V-D).
  *
  * For each sampled patch the quantizer is replayed exactly as the real
  * compressor would run it — predicting from the *reconstructed* buffer —
  * so reconstruction-feedback effects (drift at high error bounds,
  * denoising of sub-bound noise) appear in the quantization-code histogram
  * and the compression-error distribution without any analytic correction.
  * Cost per estimate stays O(|sample|): no Huffman build, no full-field
  * pass — the gap to trial-and-error (Fig. 9) is preserved.
  */
object PatchSim {

  /** @param hist        simulated quantization-code histogram
    * @param errVariance mean squared reconstruction error across patches
    * @param driftGrowthPerStep per-step growth of the drift variance (0 when
    *                    errors are stationary inside the patch — the
    *                    noise/denoising regime). The median across patches,
    *                    so a few heterogeneous patches (a dense cosmology
    *                    blob, a detector peak) cannot fake field-wide drift.
    */
  final case class Result(hist: CodeHistogram, errVariance: Double, driftGrowthPerStep: Double) {
    def p0: Double = hist.p0

    /** Fraction of non-central codes observed in the simulation. */
    def nonZeroRate: Double = 1.0 - hist.p0
  }

  /** Simulate the Lorenzo pipeline over the patches at error bound `eb`.
    * Halo points (local coordinate 0 in any dim of extent > 1) seed the
    * recon buffer with original values and are not coded.
    */
  def simulate(patches: Array[SamplePatch], eb: Double, radius: Int = 32768): Result = {
    require(patches.nonEmpty, "no patches to simulate")
    val quant = new Quantizer(eb, radius)
    // every point whose coordinates are ≥ 1 in each dim of extent > 1 is coded
    val codes = new Array[Int](patches.map(_.dims.map(d => if (d > 1) d - 1 else d).product).sum)
    var sumSq = 0.0
    var nCoded = 0
    val growths = new Array[Double](patches.length)
    var stencilDims: Array[Int] = null
    var stencil: LorenzoPredictor.Stencil = null
    var pi = 0
    patches.foreach { patch =>
      val dims = patch.dims
      val ndim = dims.length
      val strides = Field.strides(dims)
      if (!java.util.Arrays.equals(dims, stencilDims)) {
        stencil = new LorenzoPredictor.Stencil(strides)
        stencilDims = dims
      }
      val nx = dims(ndim - 1)
      val x0 = if (nx > 1) 1 else 0
      val dMid = dims.map(d => (d - 1) / 2.0).sum
      val data = patch.data
      val recon = data.clone()
      // errors near the seeded halo (Manhattan distance ≤ dMid) and far from it
      var pSqN = 0.0; var pNN = 0L; var pDN = 0.0
      var pSqF = 0.0; var pNF = 0L; var pDF = 0.0
      LorenzoPredictor.foreachInteriorRow(dims) { (start, present) =>
        var rowDist = 0
        var d = 0
        while (d < ndim - 1) { rowDist += start / strides(d) % dims(d); d += 1 }
        var x = x0
        while (x < nx) {
          val idx = start + x
          val pred = stencil.predict(recon, idx, present, x)
          val v = data(idx)
          val code = quant.code(pred, v)
          codes(nCoded) = code
          val rv = if (code == Quantizer.Escape) v else quant.reconstruct(pred, code)
          recon(idx) = rv
          val e = rv - v
          sumSq += e * e
          nCoded += 1
          val dist = (rowDist + x).toDouble
          if (dist <= dMid) { pSqN += e * e; pNN += 1; pDN += dist }
          else { pSqF += e * e; pNF += 1; pDF += dist }
          x += 1
        }
      }
      val pDelta = (if (pNF > 0) pDF / pNF else 0.0) - (if (pNN > 0) pDN / pNN else 0.0)
      growths(pi) =
        if (pDelta > 0 && pNN > 0 && pNF > 0) math.max(0.0, (pSqF / pNF - pSqN / pNN) / pDelta)
        else 0.0
      pi += 1
    }
    if (nCoded == 0) Result(CodeHistogram(Map(0 -> 1L), 1L), 0.0, 0.0)
    else {
      java.util.Arrays.sort(growths)
      Result(CodeHistogram(Frequencies.of(codes).toMap, nCoded), sumSq / nCoded, growths(growths.length / 2))
    }
  }
}
