package perfbench

import java.nio.file.Paths

/** Entry point:
  * {{{
  * perfbench.Main --workload archive|tune --seed N --seconds S --trace 0|1 --work DIR
  * }}}
  * `--work` is a scratch directory for Spark files and spans. The last line
  * of standard output is the result as one JSON object; on any error the
  * program prints no result and exits with 1.
  */
object Main {

  val Workloads = Seq("archive", "tune")

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String): String = opts.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val code =
      try {
        val workload = opt("workload")
        require(Workloads.contains(workload), s"unknown workload $workload; expected one of ${Workloads.mkString(", ")}")
        val seed = opt("seed").toLong
        val seconds = opt("seconds").toInt
        require(seconds > 0, "--seconds must be positive")
        val work = Paths.get(opt("work")).toAbsolutePath
        val outcome = opt("trace") match {
          case "1" => Traced.run(seed, work, work.resolve("spans").resolve(s"$workload-seed$seed.jsonl"))
          case "0" => workload match {
            case "archive" => Archive.run(seed, seconds)
            case "tune"    => Tune.run(seed, seconds)
          }
          case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
        }
        println(outcome.json)
        0
      } catch {
        case e: Throwable =>
          Console.err.println(s"perfbench failed: $e")
          e.printStackTrace()
          1
      }
    Console.out.flush()
    sys.exit(code)
  }
}
