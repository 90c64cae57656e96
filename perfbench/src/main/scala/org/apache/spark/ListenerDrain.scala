package org.apache.spark

/** Waits until every queued listener event has been delivered. The listener
  * bus is package-private to Spark, hence this file's package.
  */
object ListenerDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
