// Command perfbench is the federation's benchmark: one seeded command that
// drives a real loopback-TCP federation through a named workload, checks
// every output, and prints its metrics as one JSON line.
//
//	perfbench --workload swf-replay --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an untraced run. With
// --trace 1 it runs the workload twice, untraced and then with every layer
// timed from outside, replays the recorded site calls into in-process sites
// and into every registered calendar backend, and prints the per-layer
// table and metrics. README.md defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// A run builds its federation before its pass and again after it, each
// time at least setupReps times and until the builds took setupMinSeconds
// together; setup_s is the median of all of them. A set-up of a few
// milliseconds, like swf-replay's, spreads too widely over a handful of
// builds, and builds on both sides of the pass see the same host as the
// pass does.
const (
	setupReps       = 4
	setupMinSeconds = 0.5
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "swf-replay, probe-fanout or cached-mix")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 10, "measured duration of one pass")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	flag.Parse()
	setup, ok := scenarios[*name]
	if !ok || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of swf-replay, probe-fanout, cached-mix), --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	runDir := filepath.Join(".bench_build", "perfbench-run", fmt.Sprint(os.Getpid()))
	res, err := run(*name, setup, *seed, *seconds, *trace == 1, runDir)
	if rmErr := os.RemoveAll(runDir); err == nil && rmErr != nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// run measures one workload: several timed set-ups, one untraced pass and,
// when traced, a second pass with every layer instrumented.
func run(name string, setup setupFunc, seed int64, seconds float64, traced bool, runDir string) (*result, error) {
	var setups []float64
	fx, err := buildTimed(name, setup, seed, seconds, filepath.Join(runDir, "setup-before"), &setups)
	if err != nil {
		return nil, err
	}
	p := measure(fx)
	if err := fx.fed.close(); err != nil {
		return nil, err
	}
	after, err := buildTimed(name, setup, seed, seconds, filepath.Join(runDir, "setup-after"), &setups)
	if err != nil {
		return nil, err
	}
	if err := after.fed.close(); err != nil {
		return nil, err
	}
	res := &result{Attempted: p.attempted, Failed: p.failed}
	problems := checkPass(name, p)
	report(name, "untraced", p)
	if !traced {
		res.Metrics = endToEnd(p, median(setups))
	} else {
		tfx, err := setup(seed, seconds, filepath.Join(runDir, "traced"), true)
		if err != nil {
			return nil, fmt.Errorf("%s traced setup: %w", name, err)
		}
		tp := measure(tfx)
		report(name, "traced", tp)
		problems = append(problems, checkPass(name+" traced", tp)...)
		metrics, rows, layerProblems, err := perLayer(p, tp, filepath.Join(runDir, "replay"))
		if cerr := tfx.fed.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		problems = append(problems, layerProblems...)
		printTable(name, rows)
		res.Metrics = metrics
	}
	for _, msg := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	res.Correct = len(problems) == 0
	return res, nil
}

// buildTimed builds the workload's federation at least setupReps times
// and until the builds took setupMinSeconds, appending each build's time
// to times. It closes every federation but the last, which it returns.
func buildTimed(name string, setup setupFunc, seed int64, seconds float64, dir string, times *[]float64) (*fixture, error) {
	var spent float64
	for rep := 0; ; rep++ {
		t0 := time.Now()
		f, err := setup(seed, seconds, filepath.Join(dir, fmt.Sprint(rep)), false)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		took := time.Since(t0).Seconds()
		*times = append(*times, took)
		if spent += took; rep+1 >= setupReps && spent >= setupMinSeconds {
			return f, nil
		}
		if err := f.fed.close(); err != nil {
			return nil, err
		}
	}
}

// checkPass gathers a pass's correctness problems: the ledger's oracle and
// drain checks, answers that differed from the in-process ones, inputs
// that ran out, and an empty sample.
func checkPass(name string, p *pass) []string {
	out := append([]string(nil), p.fed.ledger.problems...)
	if p.mainLat.n == 0 || p.sideLat.n == 0 || p.attempted == 0 {
		out = append(out, fmt.Sprintf("%s: empty sample (%d main, %d side)", name, p.mainLat.n, p.sideLat.n))
	}
	return out
}

// report prints one pass's outcome to stderr, failures included.
func report(name, kind string, p *pass) {
	fmt.Fprintf(os.Stderr, "perfbench: %s %s: %d attempted, %d failed (ratio %.4f) in %.1f s\n",
		name, kind, p.attempted, p.failed, ratio(float64(p.failed), float64(p.attempted)), p.elapsed.Seconds())
	for _, e := range p.errs {
		fmt.Fprintf(os.Stderr, "perfbench: %s %s: error: %s\n", name, kind, e)
	}
}

// endToEnd is what a user of the federation sees on this workload.
func endToEnd(p *pass, setup float64) map[string]metric {
	return map[string]metric{
		"setup_s":      {setup, "s"},
		"main_p50_ms":  {p.mainLat.quantile(0.5, time.Millisecond), "ms"},
		"main_tail_ms": {p.mainLat.quantile(tailQuantile, time.Millisecond), "ms"},
		"main_per_s":   {float64(p.mainOps) / p.elapsed.Seconds(), "1/s"},
		"side_p50_ms":  {p.sideLat.quantile(0.5, time.Millisecond), "ms"},
		"side_tail_ms": {p.sideLat.quantile(tailQuantile, time.Millisecond), "ms"},
		"ok_ratio":     {1 - ratio(float64(p.failed), float64(p.attempted)), "ratio"},
		"heap_live_mb": {p.heapMB, "MB"},
	}
}

// row is one line of the per-layer table.
type row struct {
	name string
	m    metric
}

func printTable(workload string, rows []row) {
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	var b strings.Builder
	fmt.Fprintf(&b, "per-layer table, %s (traced run)\n", workload)
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-40s %14.3f %s\n", r.name, r.m.Value, r.m.Unit)
	}
	fmt.Print(b.String())
}
