// Command tsvbench is the repository benchmark. It runs one workload —
// chip-random, chip-array, eco-edit or fleet-mix (or all of them) —
// for a fixed time, checks the outputs against from-scratch
// evaluations, prints every metric by name with its unit, and ends
// with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"p50_ms": {"value": 1.2, "unit": "ms"}, ...}}
//
// Without tracing the metrics are the end-to-end ones; with -trace 1
// they are the per-layer ones of the traced run. Build and run it from
// the repository root with bench/run.sh; see bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"
)

// metricSpec names one metric as BENCHMARK.json declares it.
type metricSpec struct{ name, unit, better string }

// endToEnd are the metrics a user sees. Every workload has two timed
// classes of ops: chip-* maps the whole chip with LS and with Full,
// eco-edit and fleet-mix send a nominal and a peak phase. The 95th
// percentiles are printed as notes, not gated: see bench/README.md.
var endToEnd = []metricSpec{
	{"p50_ms", "ms", "lower"},        // median, first class (LS map / nominal phase)
	{"peak_p50_ms", "ms", "lower"},   // median, second class (Full map / peak phase)
	{"goodput_rps", "1/s", "higher"}, // second class ops per second that succeed within the SLO
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics, layer by layer.
var perLayer = []metricSpec{
	{"core.new_ms", "ms", "lower"},
	{"core.ls_ns_per_pt", "ns", "lower"},
	{"core.full_ns_per_pt", "ns", "lower"},
	{"core.stage2_over_ls", "ratio", "lower"},
	{"core.scaling_eff", "ratio", "higher"},
	{"core.pair_rounds", "count", "lower"},
	{"core.coeff_cache_entries", "count", "lower"},
	{"core.coeff_cache_hits", "count", "higher"},
	{"cluster.full_ms", "ms", "lower"},
	{"cluster.vs_inproc", "ratio", "lower"},
	{"cluster.steals", "count", "lower"},
	{"cluster.retries", "count", "lower"},
	{"incr.new_ms", "ms", "lower"},
	{"incr.flush_p50_ms", "ms", "lower"},
	{"incr.flush_p95_ms", "ms", "lower"},
	{"incr.rebuild_ms", "ms", "lower"},
	{"incr.flush_eval_ms", "ms", "lower"},
	{"incr.dirty_ratio", "ratio", "lower"},
	{"wal.append_p50_ms", "ms", "lower"},
	{"wal.append_p99_ms", "ms", "lower"},
	{"wal.snapshot_p50_ms", "ms", "lower"},
	{"wal.snapshot_p95_ms", "ms", "lower"},
	{"wal.export_ms", "ms", "lower"},
	{"wal.rehydrate_ms", "ms", "lower"},
	{"wal.bundle_kb", "KB", "lower"},
	{"serve.create_ms", "ms", "lower"},
	{"serve.edits_ms", "ms", "lower"},
	{"serve.map_ms", "ms", "lower"},
	{"serve.map_values_ms", "ms", "lower"},
	{"serve.screen_ms", "ms", "lower"},
	{"serve.aging_ms", "ms", "lower"},
	{"serve.delete_ms", "ms", "lower"},
	{"serve.self_edits_ms", "ms", "lower"},
	{"serve.hydrations", "count", "lower"},
	{"serve.evictions", "count", "lower"},
	{"serve.hydration_ratio", "ratio", "lower"},
	{"serve.degraded", "count", "lower"},
	{"serve.admission_rejects", "count", "lower"},
	{"serve.snapshots", "count", "lower"},
	{"serve.wal_appends", "count", "lower"},
	{"replica.create_ms", "ms", "lower"},
	{"replica.edits_ms", "ms", "lower"},
	{"replica.map_ms", "ms", "lower"},
	{"replica.map_values_ms", "ms", "lower"},
	{"replica.screen_ms", "ms", "lower"},
	{"replica.aging_ms", "ms", "lower"},
	{"replica.delete_ms", "ms", "lower"},
	{"gateway.hop_ms", "ms", "lower"},
	{"gateway.routed", "count", "lower"},
	{"gateway.migrations", "count", "lower"},
	{"gateway.forward_errors", "count", "lower"},
	{"gen.lag_p99_ms", "ms", "lower"},
	{"gen.offered_rps", "1/s", "higher"},
	{"gen.sent", "count", "higher"},
	{"trace.overhead_pct", "%", "lower"},
}

var workloads = []string{"chip-random", "chip-array", "eco-edit", "fleet-mix"}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	tiny     bool   // shrink every workload to a few seconds of work (smoke test)
	root     string // repository root, holding go.mod and cmd/
	work     string // scratch directory for binaries, WALs and logs
	run      string // this run's directory under work
	traceDir string // where a traced run writes <workload>.trace.json
}

func (c config) binDir() string { return filepath.Join(c.work, "bin") }

// runDir names a directory of the run's own. A run's directories hold
// its WAL directories and service logs, and stay behind: on the ext4
// host the benchmark was defined on, unlinking a freshly fsynced file
// takes 60-180 ms, so removing a fleet-mix run's thousands of session
// directories would take minutes.
func (c config) runDir(name string) string { return filepath.Join(c.run, name) }

func (c config) tracePath() string { return filepath.Join(c.traceDir, c.workload+".trace.json") }

// runResult is one run's outcome. Checks count as attempted operations,
// and a failed check as a failed one.
type runResult struct {
	attempted, failed int
	badChecks         int
	e2e, layer        map[string]float64
	notes             []string
}

func newRunResult() *runResult {
	return &runResult{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *runResult) count(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

func (r *runResult) check(n, bad int, msgs ...string) {
	r.count(n, bad)
	r.badChecks += bad
	r.notes = append(r.notes, msgs...)
}

func (r *runResult) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// runOne runs one workload once.
func runOne(ctx context.Context, cfg config) (*runResult, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	var err error
	if cfg.run, err = os.MkdirTemp(cfg.work, "run-"); err != nil {
		return nil, err
	}
	if spec, ok := services[cfg.workload]; ok {
		return runService(ctx, cfg, spec)
	}
	return runChip(ctx, cfg)
}

// report is the JSON result line.
type report struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload runs one workload repeat times with consecutive seeds,
// prints every metric (with quartiles across repeats) and the result
// line, and reports whether every check passed.
func runWorkload(ctx context.Context, cfg config, repeat int) (bool, error) {
	specs, pick := endToEnd, func(r *runResult) map[string]float64 { return r.e2e }
	if cfg.trace {
		specs, pick = perLayer, func(r *runResult) map[string]float64 { return r.layer }
	}
	rep := report{Correct: true, Metrics: map[string]metricJSON{}}
	vals := make(map[string][]float64)
	seed := cfg.seed
	for i := 0; i < repeat; i++ {
		cfg.seed = seed + int64(i)
		runCtx, cancel := context.WithTimeout(ctx, 170*time.Second)
		res, err := runOne(runCtx, cfg)
		cancel()
		if err != nil {
			return false, fmt.Errorf("%s seed %d: %w", cfg.workload, cfg.seed, err)
		}
		for _, n := range res.notes {
			fmt.Printf("# %s seed %d: %s\n", cfg.workload, cfg.seed, n)
		}
		rep.Attempted += res.attempted
		rep.Failed += res.failed
		rep.Correct = rep.Correct && res.badChecks == 0
		got := pick(res)
		for _, s := range specs {
			v, ok := got[s.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return false, fmt.Errorf("%s seed %d: metric %s was not measured", cfg.workload, cfg.seed, s.name)
			}
			vals[s.name] = append(vals[s.name], v)
		}
	}
	fmt.Printf("# %s: %d run(s) from seed %d, %d attempted, %d failed (fail_ratio %.4g)\n",
		cfg.workload, repeat, seed, rep.Attempted, rep.Failed, float64(rep.Failed)/float64(max(rep.Attempted, 1)))
	for _, s := range specs {
		q1, med, q3 := quartiles(vals[s.name])
		if repeat > 1 {
			fmt.Printf("%-28s %14.6g %-6s q1 %.6g q3 %.6g iqr/median %.3f\n", s.name, med, s.unit, q1, q3, (q3-q1)/math.Abs(med))
		} else {
			fmt.Printf("%-28s %14.6g %s\n", s.name, med, s.unit)
		}
		rep.Metrics[s.name] = metricJSON{Value: med, Unit: s.unit}
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return false, err
	}
	fmt.Println(string(b))
	return rep.Correct, nil
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloads, ", ")+", or all")
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 26, "timed seconds per run")
		trace    = flag.Int("trace", 0, "1: traced run, printing the per-layer metrics and writing bench/out/<workload>.trace.json")
		repeat   = flag.Int("repeat", 1, "runs per workload, with consecutive seeds; prints medians and quartiles")
		root     = flag.String("root", ".", "repository root")
		work     = flag.String("work", "bench/.build", "scratch directory for binaries, WALs and logs")
	)
	flag.Parse()
	names := []string{*workload}
	if *workload == "all" {
		names = workloads
	}
	if !slices.Contains(workloads, names[0]) || *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if err := checkRoot(*root); err != nil {
		fmt.Fprintln(os.Stderr, "tsvbench:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	ok, err := runAll(ctx, names, config{
		seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1,
		root: *root, work: *work, traceDir: filepath.Join(*root, "bench", "out"),
	}, *repeat)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsvbench:", err)
		os.Exit(1)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "tsvbench: output check failed")
		os.Exit(1)
	}
}

func runAll(ctx context.Context, names []string, cfg config, repeat int) (bool, error) {
	allOK := true
	for _, name := range names {
		cfg.workload = name
		ok, err := runWorkload(ctx, cfg, repeat)
		if err != nil {
			return false, err
		}
		allOK = allOK && ok
	}
	return allOK, nil
}

// checkRoot fails unless root holds the repository the benchmark
// builds its service binaries from.
func checkRoot(root string) error {
	for _, p := range []string{"go.mod", "cmd/tsvserve", "cmd/tsvgate"} {
		if _, err := os.Stat(filepath.Join(root, p)); err != nil {
			return fmt.Errorf("%s does not look like the repository root: %w", root, err)
		}
	}
	return nil
}
