package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"bate/internal/metrics"
)

// picker reads metrics out of a ledger and remembers which were
// missing, so a run that lost a phase reports it instead of printing
// a zero.
type picker struct {
	led     *ledger
	missing []string
	out     []metric
}

func (p *picker) q(sample string, q float64) float64 {
	v, ok := p.led.quantile(sample, q)
	if !ok {
		p.missing = append(p.missing, sample)
	}
	return v
}

func (p *picker) put(name, unit string, v float64) {
	p.out = append(p.out, metric{name: name, value: v, unit: unit})
}

// stat emits the q-quantile of all the run's samples of a series, and
// how many there were.
func (p *picker) stat(name, unit, sample string, q float64) {
	p.out = append(p.out, metric{name: name, value: p.q(sample, q), unit: unit, n: p.led.len(sample)})
}

// median emits the median of the sample set that carries the metric's
// own name.
func (p *picker) median(name, unit string) { p.stat(name, unit, name, 0.5) }

func (p *picker) done() ([]metric, error) {
	if len(p.missing) > 0 {
		return p.out, fmt.Errorf("no samples for %s", strings.Join(p.missing, ", "))
	}
	return p.out, nil
}

// endToEnd derives the end-to-end metrics of BENCHMARK.json from an
// untraced run, and the p99 that is printed beside them unbounded.
// Every p50 is the median of all the samples the run took, from its
// first cycle to its last; churn_ops_per_s is the median of the churn
// slices' rates, one per cycle.
func endToEnd(led *ledger) (gated, info []metric, err error) {
	p := &picker{led: led}
	p.stat("setup_s", "s", "setup.s", 0.5)
	p.stat("submit_ack_p50_ms", "ms", "churn.submit_ms", 0.5)
	p.stat("withdraw_ack_p50_ms", "ms", "churn.withdraw_ms", 0.5)
	p.stat("churn_ops_per_s", "ops/s", "churn.ops_per_s", 0.5)
	p.stat("round_p50_ms", "ms", "round.total_ms", 0.5)
	p.stat("recover1_p50_ms", "ms", "recover1_ms", 0.5)
	p.stat("recover2_p50_ms", "ms", "recover2_ms", 0.5)
	p.stat("status_p50_ms", "ms", "churn.status_ms", 0.5)
	p.stat("submit_ack_p95_ms", "ms", "churn.submit_ms", 0.95)
	p.stat("withdraw_ack_p95_ms", "ms", "churn.withdraw_ms", 0.95)
	gated, p.out = p.out, nil
	// p99 is printed unbounded: with a few thousand acks a run it rests
	// on a few dozen samples and spread up to 17 % over ten seeds.
	p.stat("submit_ack_p99_ms", "ms", "churn.submit_ms", 0.99)
	info, err = p.done()
	return gated, info, err
}

// layerCounts brackets the untraced baseline churn of a traced run:
// registry counters and allocator totals before and after, divided by
// the operations in between.
type layerCounts struct {
	before map[string]int64
	mem    runtime.MemStats
	perOp  map[string]float64
}

func startCounts() *layerCounts {
	c := &layerCounts{before: metrics.Snapshot()}
	runtime.ReadMemStats(&c.mem)
	return c
}

func (c *layerCounts) stop(ops int) {
	after := metrics.Snapshot()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	n := float64(ops)
	c.perOp = map[string]float64{
		"wire.bytes_per_op":     float64(after["wire.bytes_sent"]-c.before["wire.bytes_sent"]) / n,
		"wire.flushes_per_op":   float64(after["wire.flushes"]-c.before["wire.flushes"]) / n,
		"store.fsyncs_per_op":   float64(after["store.fsyncs"]-c.before["store.fsyncs"]) / n,
		"runtime.allocs_per_op": float64(mem.Mallocs-c.mem.Mallocs) / n,
		"runtime.bytes_per_op":  float64(mem.TotalAlloc-c.mem.TotalAlloc) / n,
	}
}

// shedFrac is the share of gated requests the overload gate shed; 0
// for a workload without the gate.
func shedFrac(s *stack) float64 {
	c, ok := s.ctrl.OverloadSnapshot()
	if !ok {
		return 0
	}
	shed := int64(0)
	for _, n := range c.ShedByPrio {
		shed += n
	}
	if c.Admitted+shed == 0 {
		return 0
	}
	return float64(shed) / float64(c.Admitted+shed)
}

// perLayer derives the per-layer metrics of BENCHMARK.json from a
// traced run. A controller.*_self metric is what the real request took
// beyond its replayed layers: lock, push fan-out, message building.
func perLayer(led *ledger, s *stack, c *layerCounts, shed float64) (layers, info []metric, err error) {
	p := &picker{led: led}
	p.median("wire.rtt_submit_us", "us")
	p.median("wire.rtt_alloc_us", "us")
	p.put("wire.bytes_per_op", "bytes", c.perOp["wire.bytes_per_op"])
	p.put("wire.flushes_per_op", "count", c.perOp["wire.flushes_per_op"])
	p.median("overload.acquire_us", "us")
	p.put("overload.shed_frac", "ratio", shed)
	p.median("bate.admit_us", "us")
	p.median("bate.admit_batch_us_per_demand", "us")
	for _, name := range []string{"cold", "warm", "global", "batch", "partitioned"} {
		p.median("bate.schedule_"+name+"_ms", "ms")
	}
	p.median("bate.schedule_obj_gap", "ratio")
	p.median("bate.harden_ms", "ms")
	p.median("bate.backups_ms", "ms")
	p.median("bate.backups_combos", "count")
	p.median("bate.recover_backup_us", "us")
	p.median("bate.recover_optimal_ms", "ms")
	p.median("bate.recover_greedy_ms", "ms")
	p.median("scenario.classes_cold_ms", "ms")
	p.median("scenario.cache_hit_ratio", "ratio")
	p.median("lp.rows", "count")
	p.median("lp.cols", "count")
	p.median("lp.pivots_per_round", "count")
	p.median("lp.factorizations_per_round", "count")
	p.median("lp.warmstart_hit_ratio", "ratio")
	p.median("partition.regions", "count")
	p.median("partition.cut_demands", "count")
	p.median("partition.fallbacks", "count")
	p.median("store.append_admit_us", "us")
	p.median("store.append_epoch_us", "us")
	p.median("store.append_link_us", "us")
	p.median("store.append_schedule_ms", "ms")
	p.put("store.fsyncs_per_op", "count", c.perOp["store.fsyncs_per_op"])
	p.median("store.open_replay_ms", "ms")
	p.put("controller.submit_self_us", "us", 1e3*p.q("traced.submit_ms", 0.5)-p.q("replay.submit_us", 0.5))
	p.put("controller.withdraw_self_us", "us", 1e3*p.q("traced.withdraw_ms", 0.5)-p.q("replay.withdraw_us", 0.5))
	p.put("controller.round_self_ms", "ms", p.q("round.call_ms", 0.5)-p.q("replay.round_ms", 0.5))
	p.put("controller.recover_self_ms", "ms", p.q("recover1_ms", 0.5)-p.q("replay.recover1_ms", 0.5))
	p.put("controller.submit_ack_p99_ms", "ms", p.q("base.submit_ms", 0.99))
	p.put("broker.apply_lag_ms", "ms", p.q("round.apply_lag_ms", 0.5))
	p.put("routing.tunnels_ms", "ms", s.tunnelsMs)
	p.put("runtime.allocs_per_op", "count", c.perOp["runtime.allocs_per_op"])
	p.put("runtime.bytes_per_op", "bytes", c.perOp["runtime.bytes_per_op"])
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	// HeapSys counts heap address space obtained from the OS, released
	// pages included, so it never shrinks: read at exit it is, in the
	// runtime's own words, "the largest size the heap has had".
	p.put("runtime.heap_peak_mb", "MB", float64(mem.HeapSys)/(1<<20))
	p.put("runtime.gc_pause_total_ms", "ms", float64(mem.PauseTotalNs)/1e6)
	p.put("trace.overhead_frac", "ratio", p.q("traced.submit_ms", 0.5)/p.q("untraced.submit_ms", 0.5)-1)
	layers, p.out = p.out, nil
	// How much of the real round each replayed layer accounts for: the
	// workloads are meant to stress different layers, and this shows it.
	round := p.q("round.total_ms", 0.5)
	for _, layer := range []string{"bate.schedule_cold_ms", "bate.backups_ms"} {
		p.put("round_share."+strings.TrimSuffix(layer, "_ms"), "ratio", p.q(layer, 0.5)/round)
	}
	info, err = p.done()
	return layers, info, err
}

// print writes the header, every metric by name with its unit, the
// failure ledger, and last the one-line JSON result.
func (o *outcome) print(w io.Writer) {
	for _, kv := range o.header {
		fmt.Fprintf(w, "# %s: %s\n", kv[0], kv[1])
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: o.correct(), Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]jsonMetric)}
	for _, m := range o.metrics {
		fmt.Fprintf(w, "%-34s %14.6g %s%s\n", m.name, m.value, m.unit, m.samples())
		res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	for _, m := range o.info {
		fmt.Fprintf(w, "%-34s %14.6g %s%s  (not in BENCHMARK.json)\n", m.name, m.value, m.unit, m.samples())
	}
	fmt.Fprintf(w, "%-34s %14d count\n", "ops_attempted", o.attempted)
	fmt.Fprintf(w, "%-34s %14d count\n", "ops_failed", o.failed)
	fmt.Fprintf(w, "%-34s %14.6g ratio\n", "fail_frac", float64(o.failed)/float64(max(o.attempted, 1)))
	for _, v := range o.violations {
		fmt.Fprintf(w, "VIOLATION %s\n", v)
	}
	line, _ := json.Marshal(res) // a struct of numbers and strings cannot fail to encode
	fmt.Fprintf(w, "%s\n", line)
}

// repoRoot finds the directory holding BENCHMARK.json: the working
// directory when run through bench/run.sh, its parent under
// `go run -C bench .`.
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("BENCHMARK.json not found in . or ..: run from the repository root")
}

// result is the last line a run prints.
type result struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// child runs one workload in a fresh process, so the process-wide
// scenario class cache and metrics registry start cold. It returns what
// the run printed and its result line; a run that failed an operation
// or a check is an error.
func child(name string, seed int64, seconds, trace int) ([]byte, *result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return out, nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return out, nil, fmt.Errorf("no result line: %w", err)
	}
	if !res.Correct || res.Failed > 0 {
		return out, &res, fmt.Errorf("correct=%v, %d operations failed", res.Correct, res.Failed)
	}
	return out, &res, nil
}

// runAll runs every workload, each in its own process, and returns the
// exit code: non-zero if any run failed an operation or a check.
func runAll(seed int64, seconds, trace int) int {
	code := 0
	for _, w := range workloads {
		out, _, err := child(w.name, seed, seconds, trace)
		os.Stdout.Write(out)
		fmt.Println()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// benchmarkFile is the part of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// agreeRuns is the number of runs in each of -agree's two sets. Single
// runs compared one to one disagreed by up to 26% on this host; medians
// of three did not.
const agreeRuns = 3

// runAgree measures every workload as two sets of runs of the same code
// — the same seeds in both, the sets alternating run by run so that a
// slow stretch of the host falls on both — and prints, per end-to-end
// metric, the two medians, their relative difference and the bound. It
// returns non-zero when a pair disagrees by more than its bound or a
// run fails.
func runAgree(root string, seed int64, seconds int) int {
	b, err := readBenchmarkFile(root)
	if err != nil {
		fatal(err)
	}
	code := 0
	fmt.Printf("%-14s %-22s %12s %12s %8s %6s   (medians of %d runs)\n", "workload", "metric", "first", "second", "diff", "bound", agreeRuns)
	for _, w := range workloads {
		var sets [2]map[string][]float64
		for i := range sets {
			sets[i] = make(map[string][]float64)
		}
		for run := 0; run < agreeRuns; run++ {
			for i := range sets {
				_, res, err := child(w.name, seed+int64(run), seconds, 0)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s set %d run %d: %v\n", w.name, i+1, run+1, err)
					return 1
				}
				for name, m := range res.Metrics {
					sets[i][name] = append(sets[i][name], m.Value)
				}
			}
		}
		for _, m := range b.EndToEnd {
			first, second := quantile(sets[0][m.Name], 0.5), quantile(sets[1][m.Name], 0.5)
			diff := math.Abs(second-first) / first
			verdict := ""
			if diff > m.Bound {
				verdict = "  DISAGREE"
				code = 1
			}
			fmt.Printf("%-14s %-22s %12.5g %12.5g %7.1f%% %5.0f%%%s\n", w.name, m.Name, first, second, 100*diff, 100*m.Bound, verdict)
		}
	}
	return code
}
