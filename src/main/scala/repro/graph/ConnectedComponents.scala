package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Connected components over a DataFrame edge list, by iterative min-label
  * propagation — the transitivity substrate of the merging phase
  * (Algorithm 3 line 8 "Merge based on the transitivity").
  *
  * The components that arise in MultiEM's merging are tiny (a few items
  * joined by mutual top-1 edges), so plain propagation converges in a
  * handful of rounds; `localCheckpoint` cuts lineage every iteration so the
  * loop does not build an ever-deeper plan.
  */
object ConnectedComponents {

  /** @param vertices DataFrame with a single column `id`
    * @param edges    DataFrame with columns (`src`, `dst`); undirected,
    *                 self-loops and duplicates tolerated
    * @return (id, component) where component = min id in the component
    * @throws IllegalStateException if labels still change after `maxIter`
    *         rounds
    */
  def run(vertices: DataFrame, edges: DataFrame, maxIter: Int = 50): DataFrame = {
    val sym = edges
      .select(col("src"), col("dst"))
      .unionByName(edges.select(col("dst") as "src", col("src") as "dst"))
      .filter(col("src") =!= col("dst"))
      .distinct()
      .localCheckpoint()

    var labels = vertices.select(col("id"), col("id") as "component").localCheckpoint()
    var iter = 0
    var changed = 1L
    while (changed > 0 && iter < maxIter) {
      // Candidate label for each vertex: min over its own and its
      // neighbors' current labels.
      val nbrMin = sym
        .join(labels.withColumnRenamed("id", "dst"), Seq("dst"))
        .groupBy(col("src") as "id")
        .agg(min("component") as "nbr")
      val next = labels
        .join(nbrMin, Seq("id"), "left")
        .select(col("id"), least(col("component"), coalesce(col("nbr"), col("component"))) as "component")
        .localCheckpoint()
      changed = next
        .join(labels.withColumnRenamed("component", "old"), Seq("id"))
        .filter(col("component") =!= col("old"))
        .count()
      labels = next
      iter += 1
    }
    if (changed > 0)
      throw new IllegalStateException(s"connected components did not converge within $maxIter iterations")
    labels
  }
}
