package repro.harness

import org.apache.spark.sql.SparkSession
import repro.spark.{HoppingAggSpark, Payments, SlidingAggSpark}

/** §2.1 / Figure 1 accuracy table: per-event error rate of hopping windows
  * against true sliding windows, and missed triggers of the business rule
  * "block when count in the window exceeds the threshold" — run on Spark
  * (Catalyst window frames vs the hopping approximation).
  */
object Accuracy {

  final case class Row(hopLabel: String, errorRate: Double,
                       ruleFiresSliding: Long, ruleFiresHopping: Long) {
    def render: String =
      f"$hopLabel%-14s error-rate=${errorRate * 100}%6.2f%%   " +
        f"rule fires: sliding=$ruleFiresSliding%4d hopping=$ruleFiresHopping%4d " +
        f"(missed=${ruleFiresSliding - ruleFiresHopping})"
  }

  /** 5-minute window scaled 100x down (3 s) so a laptop-scale stream at
    * 100 ev/s exercises many window turnovers; hops scale identically, so
    * the error structure (hop/window ratio) is the paper's.
    */
  def run(spark: SparkSession, n: Int = 4000, threshold: Int = 25): Seq[Row] = {
    import spark.implicits._
    val windowMs = 3000L
    val hops = Seq("hop=window/5" -> 600L, "hop=window/30" -> 100L, "hop=window/300" -> 10L)
    val df = Payments.payments(n, ratePerSec = 100, nCards = 15, seed = 401L).toDF().cache()
    val sliding = SlidingAggSpark.slidingAgg(df, windowMs)
      .select($"eventId", $"cnt" as "s_cnt").cache()
    val slidingFires = sliding.filter($"s_cnt" > threshold).count()
    hops.map { case (label, hop) =>
      val hopping = HoppingAggSpark.hoppingAgg(df, windowMs, hop)
        .select($"eventId", $"cnt" as "h_cnt")
      val joined = sliding.join(hopping, "eventId").cache()
      val wrong = joined.filter($"s_cnt" =!= $"h_cnt").count()
      val fires = joined.filter($"h_cnt" > threshold).count()
      Row(label, wrong.toDouble / n, slidingFires, fires)
    }
  }

  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder().master("local[*]").appName("accuracy")
      .config("spark.ui.enabled", false).getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    println("\n== Accuracy — hopping windows vs real-time sliding windows ==")
    run(spark).foreach(r => println(r.render))
    spark.stop()
  }
}
