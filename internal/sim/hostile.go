package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"bate/internal/chaos"
	"bate/internal/demand"
	"bate/internal/routing"
	"bate/internal/scenario"
	"bate/internal/topo"
)

// Hostile scenario presets: named adversarial (workload, failure
// schedule) combinations for the scenario engine. Each family stresses
// one assumption the paper's benign evaluation setup leaves untested —
// homogeneous Poisson arrivals, independent single-link failures, no
// planned work — and "hostile" combines all of them. Every preset is a
// pure function of (name, net, horizon, seed), so the same arguments
// replay the identical scenario.

// ScenarioFamilies lists the built-in hostile scenario presets in
// display order.
func ScenarioFamilies() []string {
	return []string{"diurnal", "flashcrowd", "tenants", "storm", "regional", "maintenance", "hostile"}
}

// HostileScenario is one assembled adversarial scenario.
type HostileScenario struct {
	Name       string
	Net        *topo.Network
	HorizonSec float64
	Seed       int64
	Workload   []*demand.Demand
	// Schedule carries the correlated-failure model: scripted outages,
	// shared-risk groups, storms and maintenance windows.
	Schedule *Schedule
}

// baseSpec is the benign Poisson layer every family modulates.
func baseSpec(horizon float64) demand.WorkloadSpec {
	return demand.WorkloadSpec{Base: demand.GeneratorConfig{
		ArrivalsPerMinute: 0.2,
		MeanDurationSec:   horizon / 3,
		MinBandwidth:      10, MaxBandwidth: 50,
		Targets: demand.TestbedTargets,
	}}
}

// BuildHostileScenario assembles a named preset over net. The horizon
// plays the role of one compressed day for the workload shapes; see
// ScenarioFamilies for valid names.
func BuildHostileScenario(name string, net *topo.Network, horizonSec float64, seed int64) (*HostileScenario, error) {
	if horizonSec <= 0 {
		return nil, fmt.Errorf("sim: scenario horizon %v must be positive", horizonSec)
	}
	spec := baseSpec(horizonSec)
	sched := &Schedule{}
	switch name {
	case "diurnal":
		spec.Diurnal = &demand.DiurnalSpec{PeriodSec: horizonSec, Peak: 2.5, Trough: 0.2}
	case "flashcrowd":
		spec.FlashCrowds = []demand.FlashCrowd{
			{AtSec: 0.3 * horizonSec, DurationSec: 0.15 * horizonSec, Multiplier: 4, HotPairs: 4, DurationFactor: 0.5},
			{AtSec: 0.7 * horizonSec, DurationSec: 0.1 * horizonSec, Multiplier: 3},
		}
	case "tenants":
		spec.Tenants = tenantMix()
	case "storm":
		sched.Groups = conduitGroups(net, 3, 0.0005)
		sched.Storms = stormsFor(sched.Groups, chaos.SRLGStorms(seed, len(sched.Groups), horizonSec, 6))
	case "regional":
		sched.Groups = regionGroups(net, 3, 0.0002)
		sched.Storms = stormsFor(sched.Groups, chaos.RegionalDisasters(seed, len(sched.Groups), horizonSec, 3))
	case "maintenance":
		sched.Maintenance = maintenancePlan(net, horizonSec)
	case "hostile":
		spec.Diurnal = &demand.DiurnalSpec{PeriodSec: horizonSec, Peak: 2.5, Trough: 0.2}
		spec.FlashCrowds = []demand.FlashCrowd{
			{AtSec: 0.3 * horizonSec, DurationSec: 0.15 * horizonSec, Multiplier: 4, HotPairs: 4, DurationFactor: 0.5},
		}
		spec.Tenants = tenantMix()
		sched.Groups = conduitGroups(net, 3, 0.0005)
		sched.Storms = stormsFor(sched.Groups, chaos.SRLGStorms(seed, len(sched.Groups), horizonSec, 4))
		sched.Maintenance = maintenancePlan(net, horizonSec)
	default:
		return nil, fmt.Errorf("sim: unknown scenario %q (families: %v)", name, ScenarioFamilies())
	}
	workload, err := demand.GenerateWorkload(net, spec, rand.New(rand.NewSource(seed)), horizonSec)
	if err != nil {
		return nil, err
	}
	return &HostileScenario{
		Name: name, Net: net, HorizonSec: horizonSec, Seed: seed,
		Workload: workload, Schedule: sched,
	}, nil
}

// SimConfig assembles the per-second simulation config that runs the
// scenario with the SLO auditor armed and its risk groups as the run's
// failure model (TimeSimConfig.RiskGroups). Maintenance windows ride
// through cfg.Maintenance (drain lead + scripted outage), so the trace
// holds only the scripted and storm events.
func (h *HostileScenario) SimConfig(tunnels *routing.TunnelSet) TimeSimConfig {
	noMaint := *h.Schedule
	noMaint.Maintenance = nil
	return TimeSimConfig{
		Net: h.Net, Tunnels: tunnels, Workload: h.Workload,
		HorizonSec: h.HorizonSec, ScheduleEverySec: 60,
		TE:          TEConfig{Kind: KindBATE},
		Admission:   AdmitBATE,
		Seed:        h.Seed,
		Trace:       noMaint.AllEvents(),
		RiskGroups:  h.Schedule.Groups,
		Maintenance: h.Schedule.Maintenance,
		Audit:       true,
	}
}

// tenantMix is the three-class multi-tenant workload: bulk transfers
// with loose targets, a standard tier, and a premium tier whose high
// targets and refunds concentrate the SLO exposure.
func tenantMix() []demand.TenantSpec {
	return []demand.TenantSpec{
		{Name: "bulk", Weight: 0.5, Targets: []float64{0.9, 0.95},
			BandwidthScale: 1.5, Refunds: []demand.RefundChoice{{Service: "bulk", Frac: 0.05}}},
		{Name: "standard", Weight: 0.3},
		{Name: "premium", Weight: 0.2, Targets: []float64{0.999, 0.9999},
			Refunds: []demand.RefundChoice{{Service: "premium", Frac: 0.5}}},
	}
}

// conduitGroups builds one shared-risk group per chosen node: every
// link touching the node shares its conduit and fails together. Nodes
// are chosen deterministically — the k nodes with the most incident
// links, ties broken by id — so the same topology always yields the
// same groups.
func conduitGroups(net *topo.Network, k int, prob float64) []scenario.RiskGroup {
	type nodeDeg struct {
		node topo.NodeID
		deg  int
	}
	deg := make([]nodeDeg, net.NumNodes())
	for i := range deg {
		deg[i].node = topo.NodeID(i)
	}
	for _, l := range net.Links() {
		deg[l.Src].deg++
		deg[l.Dst].deg++
	}
	sort.SliceStable(deg, func(i, j int) bool { return deg[i].deg > deg[j].deg })
	if k > len(deg) {
		k = len(deg)
	}
	var out []scenario.RiskGroup
	for _, nd := range deg[:k] {
		g := scenario.RiskGroup{Name: "conduit-" + net.NodeName(nd.node), Prob: prob}
		for _, l := range net.Links() {
			if l.Src == nd.node || l.Dst == nd.node {
				g.Links = append(g.Links, l.ID)
			}
		}
		if len(g.Links) > 0 {
			out = append(out, g)
		}
	}
	return out
}

// regionGroups partitions the nodes into k contiguous-id regions and
// groups every link touching a region: a regional disaster takes the
// whole group down.
func regionGroups(net *topo.Network, k int, prob float64) []scenario.RiskGroup {
	n := net.NumNodes()
	if k > n {
		k = n
	}
	region := func(v topo.NodeID) int { return int(v) * k / n }
	out := make([]scenario.RiskGroup, k)
	for r := 0; r < k; r++ {
		out[r] = scenario.RiskGroup{Name: fmt.Sprintf("region-%d", r), Prob: prob}
	}
	for _, l := range net.Links() {
		rs := region(l.Src)
		out[rs].Links = append(out[rs].Links, l.ID)
		if rd := region(l.Dst); rd != rs {
			out[rd].Links = append(out[rd].Links, l.ID)
		}
	}
	kept := out[:0]
	for _, g := range out {
		if len(g.Links) > 0 {
			kept = append(kept, g)
		}
	}
	return kept
}

// GenerateSRLGStorms lays n seeded SRLG storms over the given risk
// groups — the -srlg-storm path that turns a static SRLG inventory
// into a correlated-failure storm schedule.
func GenerateSRLGStorms(groups []scenario.RiskGroup, seed int64, horizonSec float64, n int) []Storm {
	return stormsFor(groups, chaos.SRLGStorms(seed, len(groups), horizonSec, n))
}

// stormsFor maps index-based chaos group outages onto named storms.
func stormsFor(groups []scenario.RiskGroup, outages []chaos.GroupOutage) []Storm {
	var out []Storm
	for _, o := range outages {
		if o.Group < 0 || o.Group >= len(groups) || o.UpAt <= o.DownAt {
			continue
		}
		out = append(out, Storm{Group: groups[o.Group].Name, AtSec: o.DownAt, DurationSec: o.UpAt - o.DownAt})
	}
	return out
}

// maintenancePlan schedules planned windows on the two failure-
// heaviest links (the ones an operator would actually service), in
// the middle and late thirds of the horizon, each with a drain lead of
// 5% of the horizon.
func maintenancePlan(net *topo.Network, horizon float64) []MaintenanceWindow {
	links := append([]topo.Link(nil), net.Links()...)
	sort.SliceStable(links, func(i, j int) bool {
		if links[i].FailProb != links[j].FailProb {
			return links[i].FailProb > links[j].FailProb
		}
		return links[i].ID < links[j].ID
	})
	lead := 0.05 * horizon
	var out []MaintenanceWindow
	if len(links) > 0 {
		out = append(out, MaintenanceWindow{Link: links[0].ID, StartSec: 0.4 * horizon, EndSec: 0.5 * horizon, LeadSec: lead})
	}
	if len(links) > 1 {
		out = append(out, MaintenanceWindow{Link: links[1].ID, StartSec: 0.7 * horizon, EndSec: 0.8 * horizon, LeadSec: lead})
	}
	return out
}
