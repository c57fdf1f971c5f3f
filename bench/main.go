// Command bench is the end-to-end latency ledger of the BATE stack. It
// starts the real system in one process — controller with real
// admission, a durable store with fsync on, one broker per DC, all over
// the binary wire on loopback TCP — drives it from one closed-loop
// client connection, checks that what the brokers enforce is correct,
// and prints every metric by name with its unit. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"bate/internal/scenario"
	"bate/internal/store"
)

// runConfig selects one run of one workload.
type runConfig struct {
	w       *workload
	seed    int64
	seconds int
	trace   bool
	outDir  string
}

// plan sizes a run. The measured part is a loop of cycles (see
// run.cycles); an untraced run cycles until its seconds are spent, a
// traced run a fixed number of times, since it exists for the shares
// and not for the rates.
type plan struct {
	// Set-ups per run; setup_s is their median. After minSetups, more
	// follow while they have together taken less than setupBudget.
	minSetups, maxSetups int
	setupBudget          time.Duration

	minCycles, maxCycles int
	budget               time.Duration

	// slice is the churn of one untraced cycle, and the time within
	// which the cycle starts further rounds, up to rounds.
	slice              time.Duration
	rounds             int
	baseOps, tracedOps int // churn of a traced run: plain once, replayed per cycle
	single, double     int // link failures per cycle
}

func planFor(cfg runConfig) plan {
	smoke := cfg.w == smokeWorkload
	switch {
	case smoke && cfg.trace:
		return plan{minSetups: 1, minCycles: 2, maxCycles: 2, baseOps: 20, tracedOps: 10, single: 1, double: 1}
	case smoke:
		return plan{minSetups: 1, minCycles: 2, maxCycles: 2, slice: 500 * time.Millisecond, single: 1, double: 1}
	case cfg.trace:
		return plan{minSetups: 1, minCycles: 3, maxCycles: 3, baseOps: 200, tracedOps: 100, single: 4, double: 2}
	}
	return plan{
		minSetups: 3, maxSetups: 9, setupBudget: 2 * time.Second,
		minCycles: 3, maxCycles: 1000, budget: time.Duration(cfg.seconds) * time.Second,
		slice: time.Second, rounds: 8, single: 20, double: 8,
	}
}

// outcome is what one run measured.
type outcome struct {
	header     [][2]string
	metrics    []metric // the ones BENCHMARK.json declares
	info       []metric // printed for the reader, not part of the result
	attempted  int
	failed     int
	violations []string
}

// correct reports whether every operation succeeded and every check
// passed: a reject, an error or a checker violation each count as a
// failed operation, and one is enough to fail the run.
func (o *outcome) correct() bool { return o.failed == 0 && len(o.violations) == 0 }

type metric struct {
	name  string
	value float64
	unit  string
	n     int // samples behind a quantile; 0 for a count or a ratio
}

func (m metric) samples() string {
	if m.n == 0 {
		return ""
	}
	return fmt.Sprintf("  (n=%d)", m.n)
}

// runWorkload performs one run: set-up, the phases of the plan with
// the output checker after the fill, every round and every recovery,
// and tear-down. Everything it starts has ended when it returns.
func runWorkload(cfg runConfig) (*outcome, error) {
	p := planFor(cfg)
	led := newLedger()
	var setupSpent time.Duration
	dir := filepath.Join(cfg.outDir, fmt.Sprintf("store-%s-%d", cfg.w.name, os.Getpid()))
	defer os.RemoveAll(dir)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	// Every set-up starts cold: the class cache is process-wide.
	coldSetup := func() (*stack, error) {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		scenario.DefaultClassCache.Reset()
		s, err := setup(cfg.w, cfg.seed, dir, tr)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		led.add("setup.s", s.setupS)
		setupSpent += time.Duration(s.setupS * float64(time.Second))
		return s, nil
	}
	s, err := coldSetup()
	if err != nil {
		return nil, err
	}
	defer s.close()
	r := &run{s: s, led: led}
	led.count(cfg.w.book, 0) // the fill of the stack that is measured

	if err := r.verify("fill", nil, true); err != nil {
		return nil, err
	}
	var layer *layerCounts
	if cfg.trace {
		if r.rep, err = newReplayer(s, led, dir+"-scratch", cfg.seed); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir + "-scratch")
		defer r.rep.close()
		// Plain churn first, with neither spans nor replays: the counts
		// per operation and the p99 come from it.
		s.tr = nil
		layer = startCounts()
		if err := r.churnOps(p.baseOps, false); err != nil {
			return nil, fmt.Errorf("baseline churn: %w", err)
		}
		layer.stop(p.baseOps)
		s.tr = tr
	}
	if err := r.cycles(p, cfg.seed); err != nil {
		return nil, err
	}

	out := &outcome{header: header(cfg, dir)}
	if cfg.trace {
		r.rep.standalone()
		shed := shedFrac(s)
		s.close()
		// Replaying the WAL this run left is what a restart would pay.
		start := time.Now()
		reopened, oerr := store.Open(dir, s.lay.net, store.Options{Logf: quiet})
		if oerr != nil {
			return nil, fmt.Errorf("reopen store: %w", oerr)
		}
		led.add("store.open_replay_ms", ms(time.Since(start)))
		reopened.Close()
		for _, e := range r.rep.errs {
			fmt.Fprintln(os.Stderr, "bench:", e)
		}
		if err := tr.check(); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		path := filepath.Join(cfg.outDir, "trace-"+cfg.w.name+".json")
		if err := tr.write(path, headerMap(out.header)); err != nil {
			return nil, err
		}
		out.header = append(out.header, [2]string{"trace_file", path})
		out.metrics, out.info, err = perLayer(led, s, layer, shed)
	} else {
		// The remaining set-ups run after the measured stack is gone, so
		// the samples of setup_s sit at both ends of the run.
		s.close()
		for i := 1; i < p.minSetups || (i < p.maxSetups && setupSpent < p.setupBudget); i++ {
			again, serr := coldSetup()
			if serr != nil {
				return nil, serr
			}
			again.close()
		}
		out.metrics, out.info, err = endToEnd(led)
	}
	out.attempted, out.failed, out.violations = led.attempted, led.failed, led.violations
	return out, err
}

func header(cfg runConfig, dir string) [][2]string {
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return [][2]string{
		{"workload", cfg.w.name},
		{"why", cfg.w.why},
		{"seed", fmt.Sprint(cfg.seed)},
		{"seconds", fmt.Sprint(cfg.seconds)},
		{"trace", fmt.Sprint(cfg.trace)},
		{"clients", "1 closed-loop connection"},
		{"nproc", fmt.Sprint(runtime.NumCPU())},
		{"GOMAXPROCS", fmt.Sprint(runtime.GOMAXPROCS(0))},
		{"go", runtime.Version()},
		{"commit", commit},
		{"transport", "loopback TCP, binary wire codec"},
		{"store_fs", fsName(dir) + ", fsync on"},
	}
}

func headerMap(h [][2]string) map[string]string {
	m := make(map[string]string, len(h))
	for _, kv := range h {
		m[kv[0]] = kv[1]
	}
	return m
}

// fsName names the filesystem holding dir from its statfs magic.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(filepath.Dir(dir), &st); err != nil {
		return "unknown"
	}
	known := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794C7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x2FC12FC1: "zfs",
	}
	if name, ok := known[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("fs type %#x", int64(st.Type))
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run in this process; empty runs every workload, each in its own process")
		seed    = flag.Int64("seed", 1, "seed of the harness's demand and failure streams")
		seconds = flag.Int("seconds", 36, "seconds one run measures (set-up not included)")
		trace   = flag.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
		agree   = flag.Bool("agree", false, "measure every workload as two interleaved sets of runs and compare their medians against the bounds in BENCHMARK.json")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-agree]")
		os.Exit(2)
	}
	root, err := repoRoot()
	if err != nil {
		fatal(err)
	}
	switch {
	case *agree:
		os.Exit(runAgree(root, *seed, *seconds))
	case *name == "":
		os.Exit(runAll(*seed, *seconds, *trace))
	}
	w, err := workloadByName(*name)
	if err != nil {
		fatal(err)
	}
	out, err := runWorkload(runConfig{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: filepath.Join(root, "bench", "out")})
	if err != nil {
		fatal(err)
	}
	out.print(os.Stdout)
	if !out.correct() {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
