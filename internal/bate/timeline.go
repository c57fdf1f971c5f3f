package bate

import (
	"fmt"
	"sort"

	"bate/internal/alloc"
	"bate/internal/demand"
)

// Time-window-aware admission. §3.1 footnote 4 notes that a demand's
// start and end times are "implicitly considered in our online
// admission and traffic scheduling": a demand booked for next week
// must not be blocked by traffic that will have departed by then, and
// conversely an advance reservation must hold capacity against later
// bookings. AdmitTimeline makes that explicit: it checks the
// Algorithm 1 conjecture in every time interval the new demand
// overlaps, against exactly the demands active in that interval.

// TimelineDecision reports a window-aware admission outcome.
type TimelineDecision struct {
	Admitted bool
	// Intervals lists the [start, end) windows that were checked.
	Intervals [][2]float64
	// BlockingInterval is the first window whose conjecture failed
	// (valid when !Admitted).
	BlockingInterval [2]float64
}

// AdmitTimeline decides admission for a demand with a lifetime
// [d.Start, d.End) against previously booked demands (each with its
// own lifetime), by running the Algorithm 1 conjecture per overlapping
// interval. Theorem 1 applies interval-wise: if every window's
// conjecture holds, a satisfying allocation exists for every instant
// of the demand's life.
func AdmitTimeline(in *alloc.Input, booked []*demand.Demand, d *demand.Demand) (*TimelineDecision, error) {
	if d.End <= d.Start {
		return nil, fmt.Errorf("bate: demand %d has empty lifetime [%v, %v)", d.ID, d.Start, d.End)
	}
	// Interval boundaries: the demand's own window, cut at every
	// booked start/end inside it.
	cuts := []float64{d.Start, d.End}
	for _, b := range booked {
		if b.Start > d.Start && b.Start < d.End {
			cuts = append(cuts, b.Start)
		}
		if b.End > d.Start && b.End < d.End {
			cuts = append(cuts, b.End)
		}
	}
	sort.Float64s(cuts)
	dec := &TimelineDecision{Admitted: true}
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if hi-lo <= 1e-12 {
			continue
		}
		dec.Intervals = append(dec.Intervals, [2]float64{lo, hi})
		// Demands active anywhere in (lo, hi).
		active := []*demand.Demand{d}
		for _, b := range booked {
			if b.Start < hi && b.End > lo {
				active = append(active, b)
			}
		}
		win := in.WithDemands(active)
		if !Conjecture(win, active) {
			dec.Admitted = false
			dec.BlockingInterval = [2]float64{lo, hi}
			return dec, nil
		}
	}
	return dec, nil
}
