package experiments

import (
	"fmt"
	"io"
	"sort"
)

// Runner is one regenerable paper artifact.
type Runner struct {
	ID    string // subcommand name, e.g. "fig13"
	Title string
	Run   func(io.Writer, Options) error
}

// All returns every experiment in paper order.
func All() []Runner {
	return []Runner{
		{"table1", "B4 availability targets", func(w io.Writer, _ Options) error { return Table1(w) }},
		{"fig1", "Weibull link-failure CDF", Fig1},
		{"fig2", "Motivating example allocations", func(w io.Writer, _ Options) error { return Fig2(w) }},
		{"table3", "Parallel-demand scheduled paths", func(w io.Writer, _ Options) error { return Table3(w) }},
		{"fig7", "Testbed admission/scheduling/profit", Fig7},
		{"fig8", "Allocated/demanded CDF", Fig8},
		{"fig9", "Per-demand availability", Fig9},
		{"fig10", "Link failure counts", Fig10},
		{"fig11", "Data loss CDF", Fig11},
		{"fig12", "Admission control in simulation", Fig12},
		{"fig13", "Satisfaction vs arrival rate", Fig13},
		{"fig14", "Satisfaction with fixed admission", Fig14},
		{"fig15", "Profit gain after failures", Fig15},
		{"fig16", "Pruning bandwidth loss", Fig16},
		{"fig17", "Scheduling time vs pruning depth", Fig17},
		{"fig18", "Routing-scheme robustness", Fig18},
		{"fig19", "Recovery approximation ratio (and Fig 21 speedup)", Fig19And21},
		{"fig20", "Satisfaction vs failure time", Fig20},
	}
}

// ByID returns the runner with the given id.
func ByID(id string) (Runner, error) {
	for _, r := range All() {
		if r.ID == id {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
}

// IDs lists the experiment ids in order.
func IDs() []string {
	all := All()
	ids := make([]string, len(all))
	for i, r := range all {
		ids[i] = r.ID
	}
	sort.Strings(ids)
	return ids
}
