package sim

import (
	"sort"

	"bate/internal/topo"
)

// Failure traces replay measured outages (the paper's Fig. 1(a)
// commercial-WAN measurements) instead of drawing Bernoulli failures.
// A trace file is a schedule (ParseSchedule) of bare lines, one event
// per line:
//
//	# comment
//	SRC DST DOWN_AT_SEC UP_AT_SEC
//
// e.g. "DC1 DC4 120 180" takes the DC1→DC4 link down for a minute.

// FailureEvent is one link outage.
type FailureEvent struct {
	Link   topo.LinkID
	DownAt float64
	UpAt   float64
}

// ApplyTrace pre-loads the injector with scripted outages. Scripted
// links still roll their Bernoulli dice unless the network's failure
// probabilities are zeroed; for pure replay use a topology with zero
// FailProb everywhere.
func (fi *FailureInjector) ApplyTrace(events []FailureEvent) {
	fi.trace = append(fi.trace, events...)
	sort.Slice(fi.trace, func(i, j int) bool { return fi.trace[i].DownAt < fi.trace[j].DownAt })
}

// stepTrace fires scripted events due at time now; callers are the
// injector's Step.
func (fi *FailureInjector) stepTrace(now float64) bool {
	changed := false
	for fi.traceNext < len(fi.trace) && fi.trace[fi.traceNext].DownAt <= now {
		ev := fi.trace[fi.traceNext]
		fi.traceNext++
		if fi.downUntil[ev.Link] < ev.UpAt {
			if fi.downUntil[ev.Link] == 0 {
				fi.FailCounts[ev.Link]++
			}
			fi.downUntil[ev.Link] = ev.UpAt
			changed = true
		}
	}
	return changed
}
