package perfbench

import repro.compressor._
import repro.core.Field

/** `archive`: compressor only, no model calls. One caller thread in a closed
  * loop; each operation is compress → compressToBlob → decompressBlob of one
  * (field, predictor, error bound).
  *
  * The fields vary dimensionality (the Lorenzo stencil has 2^d terms) and
  * data character (alphabet size, escapes, p0); the error bounds move p0 and
  * the alphabet; the doubled RTM field exceeds the caches. That field runs at
  * one setting only, so a pass stays near six seconds and a run holds
  * several passes.
  */
object Archive {

  final case class Op(label: String, field: Field, predictor: Predictor, ebRel: Double) {
    val eb: Double = ebRel * field.valueRange
  }

  val Settings: Seq[(Predictor, Double)] = Seq(
    LorenzoPredictor -> 1e-4, LorenzoPredictor -> 1e-3, LorenzoPredictor -> 1e-2,
    InterpolationPredictor -> 1e-3, RegressionPredictor -> 1e-3)

  def ops(fields: Seq[(String, Field)]): Seq[Op] = fields.flatMap { case (label, f) =>
    val settings = if (label == Inputs.BigLabel) Seq(LorenzoPredictor -> 1e-3) else Settings
    settings.map { case (p, r) => Op(label, f, p, r) }
  }

  final case class Timing(op: Op, totalNs: Long, compressNs: Long, decompressNs: Long, ratio: Double,
                          failures: Seq[String])

  def roundTrip(op: Op): Timing = {
    val (((res, cNs), (decoded, dNs)), totalNs) = Bench.timed {
      val c = Bench.timed(Compressor.compress(op.field, op.eb, op.predictor))
      val blob = Compressor.compressToBlob(op.field, op.eb, op.predictor)
      (c, Bench.timed(Compressor.decompressBlob(blob)))
    }
    Timing(op, totalNs, cNs, dNs, res.ratioHuffLL, Checks.roundTrip(op.field, op.eb, res, decoded))
  }

  def run(seed: Long, seconds: Int): Outcome = {
    val (fields, setupS) = Bench.setup(Inputs.archiveFields(seed))
    val all = ops(fields)
    Bench.warmUp(all.foreach(roundTrip))
    val tally = new Tally
    val timings = Seq.newBuilder[Timing]
    Bench.window(seconds) {
      all.foreach { op =>
        val t = roundTrip(op)
        tally.record(s"${op.label} ${op.predictor.name} ${op.ebRel}", t.failures)
        timings += t
      }
    }
    val ts = timings.result()
    val byOp = all.map(op => ts.filter(_.op eq op))
    val metrics = Bench.endToEnd(setupS, byOp.map(_.map(_.totalNs)),
      byOp.map(t => (t.head.op.field.size.toLong, t.map(_.compressNs))), byOp.map(_.map(_.decompressNs)))

    val points = ts.map(_.op.field.size.toLong).sum
    Bench.named("archive.compress_MBps", Stats.mb(points) / (ts.map(_.compressNs).sum / 1e9), "MB/s", s"${ts.length} calls")
    Bench.named("archive.decompress_MBps", Stats.mb(points) / (ts.map(_.decompressNs).sum / 1e9), "MB/s", s"${ts.length} calls")
    Bench.named("archive.ratio", Stats.geoMean(byOp.map(_.head.ratio)), "x", s"geometric mean of ratioHuffLL over ${byOp.length} operations")
    val rtmCompress = ts.filter(t => t.op.label == "RTM/2000" && t.op.predictor == LorenzoPredictor && t.op.ebRel == ModelCost.EbRel)
    ModelCost.report(ModelCost.selectMs(ModelCost.rtm(seed)), "measured after the window",
      Stats.median(rtmCompress.map(_.compressNs / 1e6)), "archive window")
    Outcome(tally.attempted, tally.failed, metrics)
  }
}
