package repro.compressor

import java.nio.ByteBuffer
import java.security.MessageDigest
import org.scalatest.funsuite.AnyFunSuite
import repro.core.Field
import repro.data.SciData

/** Golden gate for the compressor: one SHA-256 over the blob bytes, every
  * size/count field of [[CompressionResult]] plus `p0`, the in-memory
  * reconstruction and the [[Compressor.decompressBlob]] output, for the 17
  * Table-I fields at test dims × 3 predictors × REL {1e-4, 1e-3, 1e-2}.
  *
  * The digest is a recorded constant: any change to the blob format, the
  * reported sizes or the reconstructed values changes it. A change that alters
  * any of those on purpose records the new digest and says why.
  */
class CompressorGoldenSpec extends AnyFunSuite {

  private val Golden = "6dc7b6d724fc2fd5883646214d7642015f58a78ebb2de8135dd37eb25c53b101"

  private val Rels = Seq(1e-4, 1e-3, 1e-2)

  private def updateField(md: MessageDigest, f: Field): Unit = {
    val bb = ByteBuffer.allocate(4 * f.ndim + 8 * f.size)
    f.dims.foreach(bb.putInt)
    f.data.foreach(v => bb.putLong(java.lang.Double.doubleToRawLongBits(v)))
    md.update(bb.array())
  }

  private def updateResult(md: MessageDigest, r: CompressionResult): Unit = {
    md.update(r.predictor.getBytes("UTF-8"))
    val bb = ByteBuffer.allocate(8 * 9)
    bb.putLong(java.lang.Double.doubleToRawLongBits(r.eb))
    bb.putLong(r.n.toLong)
    bb.putLong(r.huffPayloadBits)
    bb.putLong(r.codebookBytes.toLong)
    bb.putLong(r.sideBytes.toLong)
    bb.putLong(r.unpredCount.toLong)
    bb.putLong(r.huffLLBytes)
    bb.putLong(r.rleBits)
    bb.putLong(java.lang.Double.doubleToRawLongBits(r.p0))
    md.update(bb.array())
  }

  test("blobs, CompressionResult fields and reconstructions match the golden digest") {
    val md = MessageDigest.getInstance("SHA-256")
    for (spec <- SciData.fields) {
      val f = spec.generate(test = true)
      for (p <- Predictor.all; rel <- Rels) {
        val eb = rel * f.valueRange
        val res = Compressor.compress(f, eb, p)
        val blob = Compressor.compressToBlob(f, eb, p)
        md.update(blob)
        updateResult(md, res)
        updateField(md, res.recon)
        updateField(md, Compressor.decompressBlob(blob))
      }
    }
    val digest = md.digest().map(b => f"${b & 0xff}%02x").mkString
    assert(digest == Golden)
  }
}
