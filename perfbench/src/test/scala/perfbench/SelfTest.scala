package perfbench

import java.nio.file.Paths
import repro.compressor.{Compressor, LorenzoPredictor}
import repro.core.{Field, RQModel}
import repro.data.SciData
import repro.experiments.TableII
import repro.usecases.InSitu

/** The benchmark's own tests: each output check fires on a corrupted output
  * and stays quiet on a correct one; the Table II job reproduces
  * [[TableII.run]] at the default seed; spans report self time.
  *
  * {{{ python3 perfbench/run.py --self-test }}}
  */
object SelfTest {

  private var failures = 0
  private var passed = 0

  def check(name: String)(cond: => Boolean): Unit = {
    val ok = try cond catch { case e: Throwable => Console.err.println(s"  threw $e"); false }
    if (ok) passed += 1 else { failures += 1; println(s"FAIL $name") }
  }

  def main(args: Array[String]): Unit = {
    val work = Paths.get(args.sliding(2).collectFirst { case Array("--work", w) => w }.getOrElse(".bench_build/work"))

    // ---- archive: round trip
    val f = SciData.byId("RTM", "2000").generate(test = true)
    val eb = 1e-3 * f.valueRange
    val res = Compressor.compress(f, eb, LorenzoPredictor)
    val decoded = Compressor.decompressBlob(Compressor.compressToBlob(f, eb, LorenzoPredictor))
    def withPoint(src: Field, i: Int, delta: Double): Field = {
      val d = src.data.clone()
      d(i) += delta
      Field(d, src.dims)
    }
    check("round trip of a correct blob passes")(Checks.roundTrip(f, eb, res, decoded).isEmpty)
    val shifted = withPoint(decoded, 17, 2 * eb)
    check("recon shifted by 2·eb fires the error-bound check")(
      Checks.roundTrip(f, eb, res, shifted).exists(_.contains("exceeds eb")))
    check("recon shifted by 2·eb fires the recon-equality check")(
      Checks.roundTrip(f, eb, res, shifted).exists(_.contains("differs")))
    check("decoded within eb but not equal to recon fires")(
      Checks.roundTrip(f, eb, res, withPoint(res.recon, 5, 1e-3 * eb)).exists(_.contains("differs")))
    check("ratio at or below 1 fires")(
      Checks.roundTrip(f, eb, res.copy(huffLLBytes = f.size * 8L), decoded).exists(_.contains("ratio")))
    check("NaN in the decoded field fires")(Checks.roundTrip(f, eb, res, withPoint(decoded, 3, Double.NaN)).nonEmpty)
    check("wrong decoded shape fires")(Checks.roundTrip(f, eb, res, Field(decoded.data, Array(decoded.size))).nonEmpty)

    // ---- tune: estimates, inversions, in-situ allocation
    val model = RQModel.build(f, LorenzoPredictor)
    val est = model.estimate(eb)
    check("finite estimate passes")(Checks.estimate(est).isEmpty)
    check("NaN PSNR estimate fires")(Checks.estimate(est.copy(psnr = Double.NaN)).nonEmpty)
    check("infinite bit-rate estimate fires")(Checks.estimate(est.copy(llBitRate = Double.PositiveInfinity)).nonEmpty)
    check("positive inverted eb passes")(Checks.invertedEb("x", model.errorBoundForPsnr(60)).isEmpty)
    Seq(0.0, -1.0, Double.NaN, Double.PositiveInfinity).foreach { bad =>
      check(s"inverted eb $bad fires")(Checks.invertedEb("x", bad).nonEmpty)
    }
    val alloc = InSitu.Allocation(Array(eb, eb), 100.0, 2.0)
    check("allocation within budget passes")(Checks.allocation(alloc, 2.0).isEmpty)
    check("allocation over budget fires")(Checks.allocation(alloc, 1.9).nonEmpty)
    check("allocation with a NaN eb fires")(Checks.allocation(alloc.copy(ebs = Array(eb, Double.NaN)), 2.0).nonEmpty)

    // ---- the Table II job against TableII.run at the default seed
    val spark = SparkProbe.session(work)
    try {
      val specs = Inputs.specs(Inputs.DefaultSeed)
      check("seed 0 keeps the registry's fields")(specs == SciData.fields)
      check("other seeds move every field seed")(Inputs.specs(3).zip(specs).forall { case (a, b) => a.seed != b.seed })
      val ours = Table2.job(spark, specs)
      val reference = TableII.run(spark, nChunks = Table2.NChunks)
      def close(a: Double, b: Double) = math.abs(a - b) <= 1e-9 * math.max(1.0, math.abs(b))
      check("Table II job averages equal TableII.run at the default seed")(
        close(ours.avgHuffErr, reference.avgHuffErr) && close(ours.avgHuffLLErr, reference.avgHuffLLErr) &&
          close(ours.avgPsnrErr, reference.avgPsnrErr) && close(ours.avgSsimErr, reference.avgSsimErr))
      println(s"Table II job at seed 0: ${Table2.averages(ours)}")
      println(s"TableII.run:            ${Table2.averages(reference)}")
      check("correct Table II result passes")(Checks.table2(ours, 17).isEmpty)
      check("a missing row fires")(Checks.table2(ours.copy(rows = ours.rows.tail), 17).nonEmpty)
      check("SSIM on a row that has none fires")(
        Checks.table2(ours.copy(rows = ours.rows.map(_.copy(ssimErr = Some(0.01)))), 17).nonEmpty)
      check("a NaN average fires")(
        Checks.table2(ours.copy(rows = ours.rows.updated(0, ours.rows.head.copy(psnrErr = Double.NaN))), 17).nonEmpty)
    } finally spark.stop()

    // ---- tracing and statistics
    val tr = new Tracer
    tr.span("outer") { Thread.sleep(30); tr.span("inner")(Thread.sleep(40)) }
    val outer = tr.named("outer").head
    val inner = tr.named("inner").head
    check("child span records its parent")(inner.parent == outer.id)
    check("self time excludes the child")(tr.selfNs(outer.id) == outer.durNs - inner.durNs)
    check("allocation counter sees a large array")(tr.span("alloc")(new Array[Long](1 << 20)).length > 0 &&
      tr.named("alloc").head.allocB >= 8L * (1 << 20))
    check("quartiles interpolate")(Stats.quantile(Seq(1.0, 2.0, 3.0, 4.0), 0.25) == 1.75)
    val e2e = Bench.endToEnd(1.0, Seq(Seq(3000000000L, 1000000000L, 2000000000L)),
      Seq(125000L -> Seq(5000000L, 4000000L)), Seq(Seq(7000000L, 6000000L))).map(m => m.name -> m.value).toMap
    check("an operation counts with its fastest pass")(
      e2e("pass_s") == 1.0 && e2e("main_call_ms") == 4.0 && e2e("main_MBps") == 250.0 && e2e("second_ms") == 6.0)

    println(s"$passed passed, $failures failed")
    sys.exit(if (failures == 0) 0 else 1)
  }
}
