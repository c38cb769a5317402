package perfbench

/** Order statistics over timing samples. */
object Stats {

  /** Linear-interpolated quantile, `q` in [0, 1]. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "no samples")
    val s = xs.sorted
    val pos = q * (s.length - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  def geoMean(xs: Seq[Double]): Double = math.exp(xs.map(math.log).sum / xs.length)

  /** MB (10^6 bytes) of 8-byte doubles. */
  def mb(points: Long): Double = points * 8.0 / 1e6
}

/** One named metric value with its unit. */
final case class Metric(name: String, value: Double, unit: String)

/** The result line: the last line the benchmark prints on standard output. */
final case class Outcome(attempted: Int, failed: Int, metrics: Seq[Metric]) {
  def correct: Boolean = attempted > 0 && failed == 0

  def json: String = {
    val ms = metrics.map { m =>
      require(!m.value.isNaN && !m.value.isInfinite, s"metric ${m.name} is not finite: ${m.value}")
      s""""${m.name}": {"value": ${m.value}, "unit": "${m.unit}"}"""
    }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}

/** Counts checked operations and prints each failure to standard error. */
final class Tally {
  var attempted = 0
  var failed = 0

  def record(what: String, failures: Seq[String]): Unit = {
    attempted += 1
    if (failures.nonEmpty) {
      failed += 1
      failures.foreach(f => Console.err.println(s"[check] $what: $f"))
    }
  }
}
