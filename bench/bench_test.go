package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"bate/internal/demand"
	"bate/internal/topo"
	"bate/internal/wire"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestSmoke runs the smoke workload untraced and traced and checks the
// benchmark's contract with BENCHMARK.json: every declared metric is
// emitted exactly once, by its declared name and unit, nothing fails,
// and the trace is a forest whose children stay inside their parents.
func TestSmoke(t *testing.T) {
	b, err := readBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	outDir := t.TempDir()
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range b.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, traced := range []bool{false, true} {
		out, err := runWorkload(runConfig{w: smokeWorkload, seed: 1, seconds: 1, trace: traced, outDir: outDir})
		if err != nil {
			t.Fatalf("trace=%v: %v", traced, err)
		}
		if out.failed > 0 || len(out.violations) > 0 || out.attempted == 0 {
			t.Errorf("trace=%v: %d of %d operations failed, violations %q", traced, out.failed, out.attempted, out.violations)
		}
		seen := make(map[string]int)
		for _, m := range out.metrics {
			seen[m.name]++
			if !metricName.MatchString(m.name) {
				t.Errorf("trace=%v: metric name %q is malformed", traced, m.name)
			}
			if unit, ok := want[traced][m.name]; !ok {
				t.Errorf("trace=%v: emitted %s, which BENCHMARK.json does not declare", traced, m.name)
			} else if unit != m.unit {
				t.Errorf("trace=%v: %s emitted in %q, declared in %q", traced, m.name, m.unit, unit)
			}
		}
		for name := range want[traced] {
			if seen[name] != 1 {
				t.Errorf("trace=%v: %s emitted %d times, want once", traced, name, seen[name])
			}
		}
	}

	data, err := os.ReadFile(filepath.Join(outDir, "trace-smoke.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) == 0 {
		t.Fatal("trace file holds no spans")
	}
	byID := make(map[int]*span, len(tf.Spans))
	for _, s := range tf.Spans {
		byID[s.ID] = s
	}
	for _, s := range tf.Spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			t.Errorf("span %d (%s): parent %d is not in the file", s.ID, s.Name, s.Parent)
		case s.Start < p.Start || s.End > p.End:
			t.Errorf("span %d (%s) reaches outside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		case s.OpID != p.OpID:
			t.Errorf("span %d (%s): op %d, parent's op %d", s.ID, s.Name, s.OpID, p.OpID)
		}
	}
	for id, self := range tf.SelfNs {
		if self < 0 {
			t.Errorf("span %d (%s): its children outlast it by %d ns", id, byID[id].Name, -self)
		}
	}
}

// TestCheckerCatchesOverAllocation feeds the checker what brokers
// would hold if the controller had pushed 1200 Mbps onto a 1 Gbps
// testbed link, and a status reply that falls short of the book.
func TestCheckerCatchesOverAllocation(t *testing.T) {
	net := topo.Testbed()
	label := func(d int) uint32 {
		l, err := wire.Label(d, 0)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	dc1 := &wire.AllocUpdate{Epoch: 7, Tunnels: []wire.TunnelAlloc{
		{Label: label(1), Hops: []string{"DC1", "DC2"}, Rate: 600},
		{Label: label(2), Hops: []string{"DC1", "DC2", "DC3"}, Rate: 400},
	}}
	// DC2 forwards the second tunnel too: the same label, counted once.
	dc2 := &wire.AllocUpdate{Epoch: 7, Tunnels: []wire.TunnelAlloc{dc1.Tunnels[1]}}
	if v := linkViolations(net, []*wire.AllocUpdate{dc1, dc2}, nil); len(v) != 0 {
		t.Errorf("a link filled exactly to capacity was reported: %q", v)
	}
	dc1.Tunnels[0].Rate = 800
	v := linkViolations(net, []*wire.AllocUpdate{dc1, dc2}, nil)
	if len(v) != 1 || !strings.Contains(v[0], "DC1-DC2") {
		t.Errorf("1200 Mbps over the 1000 Mbps link DC1-DC2: got %q, want one violation naming it", v)
	}
	dc1.Tunnels[0].Rate = 100
	dc2ID, _ := net.NodeByName("DC2")
	dc3ID, _ := net.NodeByName("DC3")
	failed, _ := net.LinkBetween(dc2ID, dc3ID)
	down := map[topo.LinkID]bool{failed.ID: true}
	if v := linkViolations(net, []*wire.AllocUpdate{dc1, dc2}, down); len(v) != 1 || !strings.Contains(v[0], "failed link") {
		t.Errorf("traffic over a failed link: got %q, want one violation", v)
	}

	book := []*demand.Demand{{ID: 1}, {ID: 2}, {ID: 3}}
	reply := &wire.StatusReply{Demands: []wire.DemandStatus{
		{DemandID: 1, Bandwidth: 100, Allocated: 100, Target: 0.99, Achieved: 0.995},
		{DemandID: 2, Bandwidth: 100, Allocated: 60, Target: 0.99, Achieved: 0.9},
		{DemandID: 4, Bandwidth: 100, Allocated: 100},
	}}
	if v := statusViolations(reply, book); len(v) != 4 {
		t.Errorf("status check: got %q, want under-allocation, missed target, extra demand 4, missing demand 3", v)
	}
}

// TestRejectFailsTheRun: a rejected submit is a failed operation but no
// checker violation; the result line must still not call the run
// correct, or a change that makes admission refuse work would read as
// faster acks.
func TestRejectFailsTheRun(t *testing.T) {
	o := &outcome{attempted: 10, failed: 1}
	var buf bytes.Buffer
	o.print(&buf)
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatalf("last line is not a result: %v", err)
	}
	if res.Correct || res.Failed != 1 || o.correct() {
		t.Errorf("one failed operation of ten: correct=%v failed=%d, want false and 1", res.Correct, res.Failed)
	}
}
