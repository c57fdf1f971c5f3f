package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"bate/internal/alloc"
	"bate/internal/bate"
	"bate/internal/metrics"
	"bate/internal/routing"
	"bate/internal/scenario"
)

// pruningTopologies are the Table 4 networks swept in Figs. 16/17.
func pruningTopologies(opts Options) []string {
	if opts.Quick {
		return []string{"B4", "FITI"}
	}
	return []string{"B4", "IBM", "ATT", "FITI"}
}

// Fig16 measures the bandwidth cost of scenario pruning: the total
// bandwidth allocated by the scheduling LP at pruning depth y relative
// to the y=4 reference (standing in for the unpruned optimum, whose
// residual probability is negligible), per topology (Fig. 16).
func Fig16(w io.Writer, opts Options) error {
	fprintHeader(w, "Fig 16", "Relative bandwidth loss vs pruning depth y")
	t := metrics.NewTable("topology", "y=1", "y=2", "y=3", "y=4 (ref)")
	for _, name := range pruningTopologies(opts) {
		env, err := newSimEnv(name, routing.KShortest, opts.Seed+16)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(opts.Seed + 161))
		nDemands := 8
		if opts.Quick {
			nDemands = 4
		}
		demands := staticDemands(env, rng, nDemands, 0.999)
		in := &alloc.Input{Net: env.net, Tunnels: env.tunnels, Demands: demands}
		totals := make(map[int]float64, 4)
		for y := 1; y <= 4; y++ {
			// Shallow pruning discards probability mass, so a target can
			// be uncertifiable at y=1 yet fine at y=2 (the cell is
			// genuinely infeasible, not an error).
			if a, _, err := bate.Schedule(in, bate.ScheduleOptions{MaxFail: y}); err == nil {
				totals[y] = a.Total()
			}
		}
		ref, ok := totals[4]
		row := []string{name}
		for y := 1; y <= 3; y++ {
			total, okY := totals[y]
			if !ok || !okY {
				row = append(row, "infeasible")
				continue
			}
			loss := total/ref - 1
			if loss < 0 {
				loss = 0 // LP epsilon noise
			}
			row = append(row, percent(loss))
		}
		if ok {
			row = append(row, fmt.Sprintf("%.0f Mbps", ref))
		} else {
			row = append(row, "infeasible")
		}
		t.AddRow(row...)
	}
	_, err := fmt.Fprint(w, t.String())
	return err
}

// Fig17 measures scheduling time as the pruning depth grows, using the
// paper-faithful bate.ScheduleEnumerated (one B variable per explicit
// scenario, Eq. 3-4) where the dense LP fits in memory, and the exact
// class-aggregated bate.Schedule everywhere. The enumerated column is the
// paper's Fig. 17 series: its cost explodes with the scenario count
// (see EXPERIMENTS.md for the dense-solver scale note).
func Fig17(w io.Writer, opts Options) error {
	fprintHeader(w, "Fig 17", "Scheduling time vs pruning depth y")
	t := metrics.NewTable("topology", "y", "#scenarios", "enumerated", "aggregated")
	// Keep the enumerated LP's B-variable count within the dense
	// simplex's comfort zone.
	maxEnumVars := int64(1600)
	if opts.Quick {
		maxEnumVars = 400
	}
	const maxY = 2
	for _, name := range pruningTopologies(opts) {
		env, err := newSimEnv(name, routing.KShortest, opts.Seed+17)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(opts.Seed + 171))
		demands := staticDemands(env, rng, 2, 0.99)
		in := &alloc.Input{Net: env.net, Tunnels: env.tunnels, Demands: demands}
		for y := 1; y <= maxY; y++ {
			scenarios := scenario.Count(env.net.NumLinks(), y)
			enumCell := "skipped (LP too large)"
			if scenarios*int64(len(demands)) <= maxEnumVars {
				if _, stats, err := bate.ScheduleEnumerated(in, y); err == nil {
					enumCell = stats.Elapsed.String()
				} else {
					enumCell = "infeasible"
				}
			}
			aggCell := "infeasible"
			if _, stats, err := bate.Schedule(in, bate.ScheduleOptions{MaxFail: y}); err == nil {
				aggCell = stats.Elapsed.String()
			}
			t.AddRow(name, fmt.Sprint(y), fmt.Sprint(scenarios), enumCell, aggCell)
		}
	}
	_, err := fmt.Fprint(w, t.String())
	return err
}
