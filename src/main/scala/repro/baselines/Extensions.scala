package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.ann.MutualTopK

/** The two multi-table extensions of two-table EM methods the paper
  * evaluates (Fig. 2a / 2c): pairwise matching over all table pairs and
  * chain matching against a growing base table. Both output matched pairs;
  * tuples come from Algorithm 5 (`Metrics.pairsToTuples`).
  *
  * Tables carry (id, vec, text) — i.e. already-embedded entities, so the
  * comparison isolates the matching strategy, as in the paper.
  */
object Extensions {

  /** Pairwise matching (suffix "(pw)") in one search: the matcher's rule
    * over the mutual top-1 pairs of every two sources of `items` (id,
    * source, vec, text, and `keys` in keyed ANN mode), each entity ranked per
    * partner source. This is the matcher applied to each of the C(S,2) table
    * pairs, outputs unioned; a rule computed from the candidates (AutoFJ's
    * gap threshold) sees each source pair's candidates apart. Pairs are
    * ordered by source: a from the lower one.
    */
  def bySource(items: DataFrame, matcher: PairMatcher): DataFrame =
    matcher.matchMutual(MutualTopK.mutualPairsBySource(items, 1, matcher.maxDist, matcher.ann), items, items)

  /** Chain matching (suffix "(c)"): match tables one by one against a base
    * table that retains the unmatched entities of every step, so the base
    * grows — not parallelisable, and per-step cost increases.
    */
  def chain(tables: Seq[DataFrame], matcher: PairMatcher): DataFrame = {
    require(tables.nonEmpty)
    var base = tables.head.localCheckpoint()
    var allPairs: Option[DataFrame] = None
    for (t <- tables.tail) {
      val pairs = matcher.matchPairs(base, t).localCheckpoint()
      allPairs = Some(allPairs.map(_ unionByName pairs).getOrElse(pairs))
      val matchedRight = pairs.select(col("b") as "id").distinct()
      val unmatchedRight = t.join(matchedRight, Seq("id"), "left_anti")
      base = base.unionByName(unmatchedRight).localCheckpoint()
    }
    allPairs
      .map(_.distinct())
      .getOrElse(tables.head.sparkSession.emptyDataFrame.select(lit(0L) as "a", lit(0L) as "b").limit(0))
  }
}
