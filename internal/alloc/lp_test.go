package alloc

import (
	"fmt"
	"math"
	"testing"

	"bate/internal/lp"
	"bate/internal/routing"
)

func TestAddFlowVarsAndExtract(t *testing.T) {
	in, u1, u2 := toyInput(t)
	p := lp.NewProblem()
	fv := AddFlowVars(p, in, FullCapacities(in), nil)
	// Every (demand, pair, tunnel) has a variable.
	for _, d := range in.Demands {
		rows := fv[d.ID]
		if len(rows) != len(d.Pairs) {
			t.Fatalf("demand %d: %d rows", d.ID, len(rows))
		}
		for pi := range d.Pairs {
			if len(rows[pi]) != len(in.TunnelsFor(d, pi)) {
				t.Fatalf("demand %d pair %d: %d vars", d.ID, pi, len(rows[pi]))
			}
		}
	}
	// All toy links carry DC1->DC4 tunnels in the forward direction
	// only: exactly the 4 forward links have capacity rows.
	if n := p.NumConstraints(); n != 4 {
		t.Fatalf("capacity rows for %d links, want 4", n)
	}
	// Minimize total flow with both demands forced: capacity duals
	// exist and the extracted allocation meets the demand rows.
	for _, d := range in.Demands {
		terms := make([]lp.Term, 0, 2)
		for _, v := range fv[d.ID][0] {
			p.SetCost(v, 1)
			terms = append(terms, lp.Term{Var: v, Coef: 1})
		}
		p.AddConstraint(lp.Constraint{Terms: terms, Op: lp.GE, RHS: d.Pairs[0].Bandwidth})
	}
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	a := fv.Extract(sol)
	if got := a.AllocatedFor(u1, 0); got < u1.Pairs[0].Bandwidth-1 {
		t.Fatalf("u1 allocated %v", got)
	}
	if got := a.AllocatedFor(u2, 0); got < u2.Pairs[0].Bandwidth-1 {
		t.Fatalf("u2 allocated %v", got)
	}
	if err := a.CheckCapacity(in, 1e-6); err != nil {
		t.Fatal(err)
	}
}

func TestAddFlowVarsUsablePredicate(t *testing.T) {
	in, u1, _ := toyInput(t)
	dc2, _ := in.Net.NodeByName("DC2")
	// Ban the via-DC2 tunnel: its variable is pinned to zero.
	usable := func(tn routing.Tunnel) bool {
		return in.Net.Link(tn.Links[0]).Dst != dc2
	}
	p := lp.NewProblem()
	fv := AddFlowVars(p, in, FullCapacities(in), usable)
	terms := make([]lp.Term, 0, 2)
	for _, v := range fv[u1.ID][0] {
		p.SetCost(v, 1)
		terms = append(terms, lp.Term{Var: v, Coef: 1})
	}
	p.AddConstraint(lp.Constraint{Terms: terms, Op: lp.GE, RHS: 6000})
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	a := fv.Extract(sol)
	via2 := tunnelVia(t, in, u1, "DC2")
	if a[u1.ID][0][via2] != 0 {
		t.Fatalf("banned tunnel carries %v", a[u1.ID][0][via2])
	}
	if math.Abs(a[u1.ID][0][1-via2]-6000) > 1e-6 {
		t.Fatalf("surviving tunnel carries %v", a[u1.ID][0][1-via2])
	}
}

func TestFullCapacities(t *testing.T) {
	in, _, _ := toyInput(t)
	caps := FullCapacities(in)
	if len(caps) != in.Net.NumLinks() {
		t.Fatalf("%d caps", len(caps))
	}
	for _, l := range in.Net.Links() {
		if caps[l.ID] != l.Capacity {
			t.Fatalf("link %d cap %v != %v", l.ID, caps[l.ID], l.Capacity)
		}
	}
}

func TestRatioZeroBandwidthPair(t *testing.T) {
	in, u1, _ := toyInput(t)
	u1.Pairs[0].Bandwidth = 0
	a := New(in)
	if r := a.Ratio(in, u1, 0, func(routing.Tunnel) bool { return true }); r != 1 {
		t.Fatalf("zero-bandwidth ratio %v, want 1", r)
	}
}

// TestAppendNameMatchesSprintf: every LP name shape AddFlowVars
// and the scheduling LP build with AppendName is byte for byte the
// fmt.Sprintf form it replaced, since keyed warm starts match bases by
// these names across rounds.
func TestAppendNameMatchesSprintf(t *testing.T) {
	shapes := []struct {
		prefix, tags, format string
	}{
		{"f", "dpt", "f[d%d,p%d,t%d]"},
		{"cap", "e", "cap[e%d]"},
		{"demand", "dp", "demand[d%d,p%d]"},
		{"B", "dc", "B[d%d,c%d]"},
		{"B", "dz", "B[d%d,z%d]"},
		{"deliv", "dcp", "deliv[d%d,c%d,p%d]"},
		{"avail", "d", "avail[d%d]"},
	}
	values := []int{0, 1, 7, 9, 10, 99, 100, 4095, 4096, 65535, 1 << 31, -1, -4095}
	var buf [32]byte
	for _, s := range shapes {
		vals := make([]int, len(s.tags))
		for _, a := range values {
			for _, b := range values {
				for i := range vals {
					vals[i] = a
					if i%2 == 1 {
						vals[i] = b
					}
				}
				args := make([]any, len(vals))
				for i, v := range vals {
					args[i] = v
				}
				want := fmt.Sprintf(s.format, args...)
				if got := string(AppendName(buf[:0], s.prefix, s.tags, vals...)); got != want {
					t.Fatalf("AppendName(%q, %q, %v) = %q, fmt gives %q", s.prefix, s.tags, vals, got, want)
				}
			}
		}
	}
}
