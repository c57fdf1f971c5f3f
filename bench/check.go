package main

import (
	"fmt"

	"bate/internal/alloc"
	"bate/internal/demand"
	"bate/internal/topo"
	"bate/internal/wire"
)

// The output checker. It trusts nothing the controller computed: link
// load is rebuilt from what the brokers were told to enforce
// (available = capacity − Σ allocated, straight from the allocation),
// and the per-demand guarantee from a status poll.

// capTol absorbs solver epsilon when a link is filled exactly.
const capTol = 1e-6

// enforcedTunnels merges the brokers' last AllocUpdates into one rate
// per label: a tunnel is pushed to every DC that forwards it, so the
// same label arrives several times and counts once.
func enforcedTunnels(updates []*wire.AllocUpdate) map[uint32]wire.TunnelAlloc {
	tunnels := make(map[uint32]wire.TunnelAlloc)
	for _, u := range updates {
		for _, t := range u.Tunnels {
			tunnels[t.Label] = t
		}
	}
	return tunnels
}

// linkViolations returns one line per link that the enforced tunnels
// load beyond its capacity, per tunnel hop that is not a link at all,
// and per tunnel that still sends over a link in down.
func linkViolations(net *topo.Network, updates []*wire.AllocUpdate, down map[topo.LinkID]bool) []string {
	var out []string
	load := make([]float64, net.NumLinks())
	for label, t := range enforcedTunnels(updates) {
		for i := 0; i+1 < len(t.Hops); i++ {
			a, okA := net.NodeByName(t.Hops[i])
			b, okB := net.NodeByName(t.Hops[i+1])
			link, ok := net.LinkBetween(a, b)
			if !okA || !okB || !ok {
				out = append(out, fmt.Sprintf("label %#x: hop %s-%s is not a link", label, t.Hops[i], t.Hops[i+1]))
				continue
			}
			if down[link.ID] && t.Rate > capTol {
				out = append(out, fmt.Sprintf("label %#x: %.3f Mbps over failed link %s-%s", label, t.Rate, t.Hops[i], t.Hops[i+1]))
			}
			load[link.ID] += t.Rate
		}
	}
	for _, l := range net.Links() {
		if load[l.ID] > l.Capacity*(1+capTol)+capTol {
			out = append(out, fmt.Sprintf("link %s-%s: %.3f Mbps allocated over capacity %.3f",
				net.NodeName(l.Src), net.NodeName(l.Dst), load[l.ID], l.Capacity))
		}
	}
	return out
}

// statusViolations returns one line per way a status reply falls short
// of the book: a demand missing or extra, allocated below its
// bandwidth, or achieving less than its availability target.
func statusViolations(reply *wire.StatusReply, book []*demand.Demand) []string {
	var out []string
	want := make(map[int]bool, len(book))
	for _, d := range book {
		want[d.ID] = true
	}
	for _, ds := range reply.Demands {
		if !want[ds.DemandID] {
			out = append(out, fmt.Sprintf("demand %d: on the controller's book, not on the harness's", ds.DemandID))
			continue
		}
		delete(want, ds.DemandID)
		if ds.Allocated < ds.Bandwidth*(1-capTol) {
			out = append(out, fmt.Sprintf("demand %d: allocated %.3f of %.3f Mbps", ds.DemandID, ds.Allocated, ds.Bandwidth))
		}
		if ds.Achieved < ds.Target-1e-9 {
			out = append(out, fmt.Sprintf("demand %d: availability %.6f below target %.6f", ds.DemandID, ds.Achieved, ds.Target))
		}
	}
	for id := range want {
		out = append(out, fmt.Sprintf("demand %d: on the harness's book, missing from status", id))
	}
	return out
}

// enforcedAllocation rebuilds the allocation the brokers enforce, in
// the shape the solver-side functions take, for the traced replay.
func enforcedAllocation(in *alloc.Input, updates []*wire.AllocUpdate) alloc.Allocation {
	a := alloc.New(in)
	for label, t := range enforcedTunnels(updates) {
		id, ti := wire.SplitLabel(label)
		if rows, ok := a[id]; ok && ti < len(rows[0]) {
			rows[0][ti] = t.Rate
		}
	}
	return a
}
