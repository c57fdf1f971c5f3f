package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func quickOpts() Options { return Options{Quick: true, Seed: 1, Repeats: 2} }

func runExperiment(t *testing.T, id string) string {
	t.Helper()
	r, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Run(&buf, quickOpts()); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	out := buf.String()
	if len(out) == 0 {
		t.Fatalf("%s: empty output", id)
	}
	return out
}

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 18 {
		t.Fatalf("registry has %d experiments, want 18 artifacts", len(all))
	}
	seen := map[string]bool{}
	for _, r := range all {
		if seen[r.ID] {
			t.Fatalf("duplicate id %s", r.ID)
		}
		seen[r.ID] = true
		if r.Title == "" || r.Run == nil {
			t.Fatalf("incomplete runner %q", r.ID)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("expected unknown-id error")
	}
	if len(IDs()) != len(all) {
		t.Fatal("IDs() incomplete")
	}
}

func TestTable1(t *testing.T) {
	out := runExperiment(t, "table1")
	for _, want := range []string{"99.99%", "99.95%", "99.9%", "99%", "Bulk transfer"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table1 missing %q:\n%s", want, out)
		}
	}
}

func TestFig1(t *testing.T) {
	out := runExperiment(t, "fig1")
	if !strings.Contains(out, "CDF") {
		t.Fatalf("fig1 output:\n%s", out)
	}
}

func TestFig2Shapes(t *testing.T) {
	out := runExperiment(t, "fig2")
	// FFC must not meet either target; BATE must meet both.
	ffc := section(out, "[FFC")
	if strings.Contains(ffc, "true") {
		t.Fatalf("FFC satisfied a demand:\n%s", ffc)
	}
	bate := section(out, "[BATE")
	if strings.Count(bate, "true") < 4 { // both users, both paths rows
		t.Fatalf("BATE should meet both targets:\n%s", bate)
	}
}

// section returns out from the marker to the next blank-line-separated
// block.
func section(out, marker string) string {
	i := strings.Index(out, marker)
	if i < 0 {
		return ""
	}
	rest := out[i:]
	if j := strings.Index(rest[1:], "\n["); j > 0 {
		return rest[:j+1]
	}
	return rest
}

func TestTable3Shapes(t *testing.T) {
	out := runExperiment(t, "table3")
	for _, want := range []string{"demand-1 (99.5%)", "demand-2 (99.9%)", "demand-3 (95%)", "BATE", "TEAVAR", "FFC"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table3 missing %q:\n%s", want, out)
		}
	}
}

func TestFig16AndFig17(t *testing.T) {
	if testing.Short() {
		t.Skip("pruning sweep in -short mode")
	}
	out := runExperiment(t, "fig16")
	if !strings.Contains(out, "y=1") {
		t.Fatalf("fig16 output:\n%s", out)
	}
	out = runExperiment(t, "fig17")
	if !strings.Contains(out, "aggregated") || !strings.Contains(out, "µs") && !strings.Contains(out, "ms") {
		t.Fatalf("fig17 output:\n%s", out)
	}
}

func TestFig18(t *testing.T) {
	if testing.Short() {
		t.Skip("routing sweep in -short mode")
	}
	out := runExperiment(t, "fig18")
	for _, want := range []string{"Oblivious", "Edge-disjoint", "KSP-4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig18 missing %q:\n%s", want, out)
		}
	}
}

func TestFig9And10And11(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed repetition sweep in -short mode")
	}
	out := runExperiment(t, "fig9")
	if !strings.Contains(out, "BATE-TS") {
		t.Fatalf("fig9 output:\n%s", out)
	}
	out = runExperiment(t, "fig10")
	if !strings.Contains(out, "L4") {
		t.Fatalf("fig10 output:\n%s", out)
	}
	out = runExperiment(t, "fig11")
	if !strings.Contains(out, "p99") {
		t.Fatalf("fig11 output:\n%s", out)
	}
}

func TestFig13Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("satisfaction sweep in -short mode")
	}
	out := runExperiment(t, "fig13")
	for _, want := range []string{"BATE", "TEAVAR", "SWAN", "SMORE", "B4", "FFC"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig13 missing %q:\n%s", want, out)
		}
	}
}

func TestOptionsHelpers(t *testing.T) {
	o := Options{}
	if o.repeats(10, 3) != 10 {
		t.Fatal("default repeats")
	}
	o.Quick = true
	if o.repeats(10, 3) != 3 {
		t.Fatal("quick repeats")
	}
	o.Repeats = 7
	if o.repeats(10, 3) != 7 {
		t.Fatal("override repeats")
	}
	if o.scale(100, 10) != 10 {
		t.Fatal("quick scale")
	}
	o.Quick = false
	if o.scale(100, 10) != 100 {
		t.Fatal("default scale")
	}
}

// TestAllExperimentsQuick runs every remaining artifact at benchmark
// scale so the registry stays executable end to end. Slower sweeps are
// already covered individually above; this catches regressions in the
// rest.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick sweep in -short mode")
	}
	for _, id := range []string{"fig7", "fig8", "fig11", "fig12", "fig14", "fig15", "fig19", "fig20"} {
		id := id
		t.Run(id, func(t *testing.T) {
			out := runExperiment(t, id)
			if !strings.Contains(out, "===") {
				t.Fatalf("%s produced no banner:\n%s", id, out)
			}
		})
	}
}
