package perfbench

import java.nio.file.Path
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import scala.collection.mutable.ArrayBuffer

/** Task counters gathered by a listener the benchmark registers: run time,
  * executor GC time and shuffle bytes written, per stage.
  */
final case class TaskRecord(stageId: Int, durationMs: Long, runTimeMs: Long, gcMs: Long, shuffleWriteB: Long)

final class TaskListener extends SparkListener {
  private val tasks = ArrayBuffer.empty[TaskRecord]
  private val endedJobs = scala.collection.mutable.Set.empty[Int]

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    if (m != null)
      tasks += TaskRecord(e.stageId, e.taskInfo.duration, m.executorRunTime, m.jvmGCTime,
        m.shuffleWriteMetrics.bytesWritten)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized { endedJobs += e.jobId }

  def mark: Int = synchronized(tasks.length)

  def since(mark: Int): Seq[TaskRecord] = synchronized(tasks.drop(mark).toSeq)

  /** Waits until the listener has seen the end of every given job, so the
    * task records of a finished action are complete.
    */
  def await(jobIds: Seq[Int]): Unit = {
    val deadline = System.nanoTime + 30000000000L
    while (synchronized(!jobIds.forall(endedJobs.contains)) && System.nanoTime < deadline) Thread.sleep(2)
  }
}

object SparkProbe {

  /** Local Spark with [[slots]] slots; all scratch files inside `work`. */
  def session(work: Path): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$slots]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", work.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", work.resolve("spark-warehouse").toString)
      .config("spark.sql.shuffle.partitions", slots.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  /** Task slots: one per core, at most 4. */
  val slots: Int = math.min(4, Runtime.getRuntime.availableProcessors)

  /** Runs `action` in its own job group and returns its result together
    * with the tasks it ran, once the listener has seen them all.
    */
  private var groups = 0

  def traced[A](spark: SparkSession, listener: TaskListener)(action: => A): (A, Seq[TaskRecord]) = {
    groups += 1
    val group = s"perfbench-$groups"
    val sc = spark.sparkContext
    val m = listener.mark
    sc.setJobGroup(group, group)
    val a = try action finally sc.clearJobGroup()
    listener.await(sc.statusTracker.getJobIdsForGroup(group).toSeq)
    (a, listener.since(m))
  }

  /** The stage that ran the most executor time: model + measure in the Table II job. */
  def heaviestStage(tasks: Seq[TaskRecord]): Seq[TaskRecord] =
    if (tasks.isEmpty) Nil
    else tasks.groupBy(_.stageId).values.maxBy(_.map(_.runTimeMs).sum)
}
