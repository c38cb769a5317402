package perfbench

import scala.collection.mutable.ArrayBuffer

/** Helpers shared by the workloads: timing, the measuring window, set-up. */
object Bench {

  def timed[A](f: => A): (A, Long) = {
    val t0 = System.nanoTime
    val a = f
    (a, System.nanoTime - t0)
  }

  /** Runs whole passes for about `seconds` and prints their wall times. A
    * pass starts while at least half the median pass so far still fits in
    * the window, so the measured time averages `seconds`; a run makes at
    * least one pass. Only whole passes count, so every run measures the
    * same mix of operations.
    */
  def window(seconds: Int)(pass: => Unit): Unit = {
    val start = System.nanoTime
    val walls = ArrayBuffer(timed(pass)._2.toDouble)
    while (System.nanoTime - start + Stats.median(walls.toSeq) / 2 <= seconds * 1e9) walls += timed(pass)._2.toDouble
    info(walls.map(w => f"${w / 1e9}%.3f").mkString("pass walls (s): ", " ", ""))
  }

  /** Runs `prepare` several times and returns the last result with the
    * median set-up time in seconds.
    */
  val SetupRepeats = 3

  def setup[A](prepare: => A): (A, Double) = {
    var last: Option[A] = None
    val times = (0 until SetupRepeats).map { _ =>
      val (a, ns) = timed(prepare)
      last = Some(a)
      ns / 1e9
    }
    (last.get, Stats.median(times))
  }

  /** Untimed calls that let the JIT compile the hot paths before the window. */
  def warmUp(calls: => Unit): Unit = info(f"warm-up ${timed(calls)._2 / 1e9}%.1f s")

  def med(ns: Seq[Long]): Double = Stats.median(ns.map(_.toDouble))

  /** An operation's time over the passes of a run: its fastest pass. Other
    * work on a shared machine, and JIT compilation still under way, only
    * ever slow a call down, so the fastest call is the one least disturbed.
    */
  def best(ns: Seq[Long]): Double = ns.min.toDouble

  /** The end-to-end metrics every workload reports; see perfbench/README.md
    * for what the operations and calls are in each workload. Each sequence
    * holds one operation's samples from the passes of a run; an operation
    * counts with its [[best]] time, so noise in some passes does not move
    * the result.
    *
    * @param pass   each operation's whole time; `pass_s` is their sum
    * @param main   each operation's main-call time, with the points it
    *               processed; `main_call_ms` is their geometric mean, a
    *               typical call that every operation moves
    * @param second each operation's second-call time; `second_ms` is their sum
    */
  def endToEnd(setupS: Double, pass: Seq[Seq[Long]], main: Seq[(Long, Seq[Long])], second: Seq[Seq[Long]]): Seq[Metric] = {
    val mainMs = main.map { case (_, ns) => best(ns) / 1e6 }
    Seq(
      Metric("setup_s", setupS, "s"),
      Metric("pass_s", pass.map(best).sum / 1e9, "s"),
      Metric("main_MBps", Stats.mb(main.map(_._1).sum) / (mainMs.sum / 1e3), "MB/s"),
      Metric("main_call_ms", Stats.geoMean(mainMs), "ms"),
      Metric("second_ms", second.map(best).sum / 1e6, "ms"),
    )
  }

  /** An informational line; only the last line of standard output is the result. */
  def info(line: String): Unit = println(s"info: $line")

  /** A workload's own metric (see perfbench/README.md), printed by name and
    * unit on an informational line; the gated metrics are in the result.
    */
  def named(name: String, value: Double, unit: String, note: String = ""): Unit =
    info(f"$name = $value%.4f $unit" + (if (note.isEmpty) "" else s"  ($note)"))
}
