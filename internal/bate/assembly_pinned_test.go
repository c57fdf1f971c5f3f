package bate

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"bate/internal/alloc"
	"bate/internal/demand"
	"bate/internal/routing"
	"bate/internal/topo"
)

// TestAssemblyPinned pins the scheduling-LP assembly behind the two
// solves that rebuild it from scratch: Harden's re-solve with
// full-delivery rows for the demands the relaxation over-promised, and
// AdmitFixed's relaxed trial and its hard fallback. Each case is a
// seeded book whose capacities bind, so the relaxation over-promises
// and both paths run; the SHA-256 covers the hardened allocation and
// every fixed-admission decision, against the hardened book and against
// an empty network. The constants were recorded on amd64, and
// re-recorded when the relaxed one-shot Schedule and AdmitFixed's
// trials moved from the dense tableau to the revised simplex: the LPs
// have alternate optima, so the allocation bits moved while every
// decision count below stayed as it was. One moved row, column or
// coefficient fails here.
func TestAssemblyPinned(t *testing.T) {
	for _, c := range []struct {
		name          string
		net           *topo.Network
		book, probes  int
		minBw, spanBw float64
		// The decisions the pin stands for.
		weak, admitted, fallbacks int
		sha                       string
	}{
		{"Testbed", topo.Testbed(), 12, 12, 150, 350, 1, 16, 4, "58f333876a4969dcc531d887ea7fa2c52d658a4e70c1a1cd2e0ddca17985bd33"},
		{"B4", topo.B4(), 60, 12, 100, 400, 10, 24, 3, "b3d8917bc015ac38d4caaee0d51a223526db7b563fae885d135ea0f8309da0d8"},
	} {
		t.Run(c.name, func(t *testing.T) {
			in := &alloc.Input{Net: c.net, Tunnels: routing.Compute(c.net, routing.KShortest, 4)}
			rng := rand.New(rand.NewSource(3))
			pairs := c.net.Pairs()
			targets := []float64{0.99, 0.999, 0.9999}
			draw := func(id int) *demand.Demand {
				p := pairs[rng.Intn(len(pairs))]
				bw := c.minBw + c.spanBw*rng.Float64()
				return &demand.Demand{
					ID: id, Pairs: []demand.PairDemand{{Src: p[0], Dst: p[1], Bandwidth: bw}},
					Target: targets[rng.Intn(len(targets))], Charge: bw, RefundFrac: 0.1,
				}
			}
			for i := 0; i < c.book; i++ {
				in.Demands = append(in.Demands, draw(i))
			}
			opts := ScheduleOptions{MaxFail: 2}
			relaxed, _, err := Schedule(in, opts)
			if err != nil {
				t.Fatal(err)
			}
			weak := 0
			for _, d := range in.Demands {
				if ok, err := alloc.Satisfies(in, relaxed, d, opts.MaxFail); err != nil {
					t.Fatal(err)
				} else if !ok {
					weak++
				}
			}
			if weak == 0 {
				t.Fatal("the relaxation holds for every demand: Harden would not re-solve")
			}
			hardened, err := Harden(in, opts, relaxed)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			writeRows(h, hardened, in.Demands)

			// Fixed admission against the hardened book, and alone on the
			// empty network, where its relaxed trial is exactly Schedule
			// on the one-demand book, so the test can tell which trials ran.
			empty := in.WithDemands(nil)
			fallbacks, admitted := 0, 0
			for i := 0; i < c.probes; i++ {
				d := draw(c.book + i)
				for _, trial := range []struct {
					in      *alloc.Input
					current alloc.Allocation
				}{{in, hardened}, {empty, alloc.Allocation{}}} {
					res, err := AdmitFixed(trial.in, trial.current, d, opts.MaxFail)
					if err != nil {
						t.Fatal(err)
					}
					if res.Admitted {
						admitted++
						writeRows(h, alloc.Allocation{d.ID: res.NewAlloc}, []*demand.Demand{d})
					} else {
						h.Write([]byte{0})
					}
				}
				one := in.WithDemands([]*demand.Demand{d})
				if a, _, err := Schedule(one, opts); err == nil {
					if ok, _ := alloc.Satisfies(one, a, d, opts.MaxFail); !ok {
						fallbacks++
					}
				}
			}
			sum := hex.EncodeToString(h.Sum(nil))
			t.Logf("%d weak demands, %d of %d fixed admits, %d hard fallbacks", weak, admitted, 2*c.probes, fallbacks)
			if fallbacks == 0 || fallbacks == c.probes {
				t.Fatalf("%d of %d probes took AdmitFixed's hard fallback: both trials must run", fallbacks, c.probes)
			}
			if weak != c.weak || admitted != c.admitted || fallbacks != c.fallbacks {
				t.Fatalf("decisions moved: %d weak, %d admitted, %d fallbacks; pinned %d, %d, %d",
					weak, admitted, fallbacks, c.weak, c.admitted, c.fallbacks)
			}
			if runtime.GOARCH != "amd64" {
				t.Skipf("pinned on amd64; %s: %s", runtime.GOARCH, sum)
			}
			if sum != c.sha {
				t.Fatalf("assembly moved: allocations %s; pinned %s", sum, c.sha)
			}
		})
	}
}

// writeRows feeds the allocation bits of ds, in book order, to h.
func writeRows(h hash.Hash, a alloc.Allocation, ds []*demand.Demand) {
	var buf [8]byte
	for _, d := range ds {
		for _, row := range a[d.ID] {
			for _, x := range row {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
				h.Write(buf[:])
			}
		}
	}
}
