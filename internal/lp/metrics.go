package lp

import "bate/internal/metrics"

// Process-wide solver instrumentation. Paired with the bate and
// scenario counters these show where scheduling time goes: how often
// the revised engine refactorizes, how many warm starts land, and how
// the pivot work splits across engines.
var (
	factorizations = metrics.NewCounter("lp.factorizations")
	warmstartHits  = metrics.NewCounter("lp.warmstart_hits")
	warmstartMiss  = metrics.NewCounter("lp.warmstart_misses")
	// Pivots spent on warm bases (hit or not), and warm starts
	// abandoned for a cold solve (Solution.WarmFallback has the reason).
	warmstartRepair    = metrics.NewCounter("lp.warmstart_repair_pivots")
	warmstartFallbacks = metrics.NewCounter("lp.warmstart_fallbacks")
	pivotsDense        = metrics.NewCounter("lp.pivots_dense")
	pivotsRevised      = metrics.NewCounter("lp.pivots_revised")
	abortsCtr          = metrics.NewCounter("lp.aborts")
)
