package perfbench

import org.apache.spark.sql.{Row, SparkSession}
import repro.compressor.LorenzoPredictor
import repro.core.RQModel
import repro.data.SciField
import repro.experiments.TableII
import repro.sparkapi.{Chunks, ModelPipeline}

/** The repository's headline pipeline as one Spark job: chunk 17 fields
  * into 4 slabs each → model + measure at the 9 Table II error bounds
  * (Lorenzo, full scan) → aggregate per field → the Eq. 20 averages. The
  * traced run times its stages (the `sparkapi` layer) and the self-test
  * checks it against [[TableII.run]].
  */
object Table2 {

  val NChunks = 4
  val SampleRate = 0.01

  /** Table II rows from the per-field aggregate, computed as
    * [[TableII.run]] computes them, but over any list of (re-seeded) fields.
    */
  def rows(specs: Seq[SciField], agg: Array[Row], test: Boolean): TableII.Result = {
    val byField = agg.groupBy(r => (r.getAs[String]("dataset"), r.getAs[String]("field")))
    TableII.Result(specs.map { spec =>
      val rs = byField((spec.dataset, spec.fieldName)).sortBy(_.getAs[Double]("ebRel"))
      def col(c: String): Seq[Double] = rs.map(_.getAs[Double](c)).toSeq
      val range = rs.head.getAs[Double]("range")
      val sampleErr = math.abs(col("sampledErrStd").head - col("fullErrStd").head) / range
      val huffErr = RQModel.accuracyError(col("measHuffBitRate"), col("estHuffBitRate"))
      val measGain = col("measHuffBitRate").zip(col("measLLBitRate")).map { case (h, l) => h / math.max(l, 0.05) }
      val estGain = col("estHuffBitRate").zip(col("estLLBitRate")).map { case (h, l) => h / math.max(l, 0.05) }
      val llErr = RQModel.accuracyError(measGain, estGain)
      val huffLLErr = RQModel.accuracyErrorFloored(col("measLLBitRate"), col("estLLBitRate"))
      def psnr(r: Row, mse: Double) = 20 * math.log10(r.getAs[Double]("range")) - 10 * math.log10(mse)
      val measPsnr = rs.map(r => psnr(r, r.getAs[Double]("measMse"))).toSeq
      val estPsnr = rs.map(r => psnr(r, math.max(r.getAs[Double]("estErrVariance"), 1e-300))).toSeq
      val psnrErr = RQModel.accuracyError(measPsnr, estPsnr)
      val ssimErr =
        if (TableII.hasSsim(spec.dataset)) Some(RQModel.accuracyError(col("measSsim"), col("estSsim")))
        else None
      TableII.Row(spec.dataset, spec.fieldName, (if (test) spec.testDims else spec.benchDims).mkString("x"),
        sampleErr, huffErr, llErr, huffLLErr, psnrErr, ssimErr)
    })
  }

  /** One run of the pipeline: chunk → model + measure → aggregate → Eq. 20 averages. */
  def job(spark: SparkSession, specs: Seq[SciField], test: Boolean = false): TableII.Result = {
    val chunks = Chunks.chunkAll(spark, specs, NChunks, test)
    val stats = ModelPipeline.modelAndMeasure(chunks, TableII.EbSweep, LorenzoPredictor, SampleRate)
    rows(specs, ModelPipeline.aggregateByField(stats).collect(), test)
  }

  /** The Eq. 20 average model errors of a Table II result, in %. */
  def averages(r: TableII.Result): String =
    f"huff_err_pct=${r.avgHuffErr * 100}%.4f huffll_err_pct=${r.avgHuffLLErr * 100}%.4f " +
      f"psnr_err_pct=${r.avgPsnrErr * 100}%.4f ssim_err_pct=${r.avgSsimErr * 100}%.4f"
}
