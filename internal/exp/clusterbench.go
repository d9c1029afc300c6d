package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"tsvstress/internal/cluster"
	"tsvstress/internal/core"
	"tsvstress/internal/field"
	"tsvstress/internal/material"
	"tsvstress/internal/placegen"
	"tsvstress/internal/tensor"
)

// ClusterBench is one measured cluster-tier sweep, emitted as
// BENCH_cluster.json. It records the same full-chip Full-mode map three
// ways — single process, a one-worker cluster (protocol overhead
// baseline) and the whole fleet — plus the parity check the cluster
// must pass against the single-process result.
type ClusterBench struct {
	NumTSV     int `json:"num_tsv"`
	NumPoints  int `json:"num_points"`
	NumWorkers int `json:"num_workers"`
	// WorkerCores is each worker's advertised tile-parallelism budget.
	WorkerCores []int `json:"worker_cores"`
	// HostCPUs is how many CPUs the benchmarking host exposes. Read the
	// speedup against it: workers are compute-bound, so a fleet sharing
	// one core cannot beat one worker on wall-clock no matter how well
	// the scheduler does — speedup ≈ 1.0 is the ceiling there, and the
	// number only becomes a scaling measurement when the workers own
	// disjoint cores (separate hosts, or HostCPUs ≥ fleet size).
	HostCPUs int `json:"host_cpus"`

	SingleProcessMillis float64 `json:"single_process_ms"`
	OneWorkerMillis     float64 `json:"one_worker_ms"`
	ClusterMillis       float64 `json:"cluster_ms"`
	// Speedup is OneWorkerMillis / ClusterMillis: what adding the rest
	// of the fleet buys over one worker, protocol overhead included in
	// both. See HostCPUs for how to interpret it.
	Speedup float64 `json:"speedup_vs_one_worker"`
	// SpeedupValid is false when the fleet outnumbers the host's CPUs:
	// workers then share cores and Speedup measures scheduler overhead,
	// not scaling. Consumers (and the tsvexp headline) must not quote
	// Speedup when this is false.
	SpeedupValid bool `json:"speedup_valid"`
	// PointsPerSec is the fleet's map throughput (points evaluated per
	// second of wall time, protocol overhead included).
	PointsPerSec float64 `json:"cluster_points_per_sec"`
	// MaxAbsDiffMPa is the worst per-component deviation of the cluster
	// map from the single-process map (the ≤1e-9 MPa parity pin).
	MaxAbsDiffMPa float64 `json:"max_abs_diff_mpa"`

	Chunks          int64 `json:"chunks"`
	Steals          int64 `json:"steals"`
	Requeues        int64 `json:"requeues"`
	GeneratedAtUnix int64 `json:"generated_at_unix"`
}

// ParityBudgetMPa is the acceptance bound on cluster-vs-single-process
// deviation. The implementation is bit-identical by construction, so
// any nonzero deviation is a bug; the budget just leaves the check
// meaningful if the kernel ever reorders its accumulation.
const ParityBudgetMPa = 1e-9

// RunClusterBench measures the cluster tier over the given worker
// fleet on a full-chip problem: a numTSV random placement at the
// paper's 1e-2/µm² density under a device-layer grid of about
// numPoints points, TSV footprints masked. It fails if the cluster map
// deviates from the single-process map by more than ParityBudgetMPa.
func RunClusterBench(numTSV, numPoints int, seed int64, addrs []string) (*ClusterBench, error) {
	st := material.Baseline(material.BCB)
	pl, err := placegen.Random(numTSV, 1e-2, 2*st.RPrime+1, seed)
	if err != nil {
		return nil, err
	}
	region := pl.Bounds(5)
	// Oversample ~15% so the footprint mask still leaves ~numPoints.
	spacing := spacingFor(region.Area(), float64(numPoints)*1.15)
	g, err := field.NewGrid(region, spacing)
	if err != nil {
		return nil, err
	}
	pts := field.Masked(g.Points(), field.OutsideTSVs(pl, st.RPrime))
	ctx := context.Background()

	// Single-process reference.
	an, err := core.New(st, pl, core.Options{})
	if err != nil {
		return nil, err
	}
	want := make([]tensor.Stress, len(pts))
	t0 := time.Now()
	if err := an.MapInto(ctx, want, pts, core.ModeFull); err != nil {
		return nil, err
	}
	singleMs := millis(time.Since(t0))

	mapVia := func(workerAddrs []string) (float64, []tensor.Stress, cluster.Stats, []int, error) {
		c, err := cluster.NewCoordinator(workerAddrs, cluster.CoordinatorOptions{})
		if err != nil {
			return 0, nil, cluster.Stats{}, nil, err
		}
		defer c.Close()
		if err := c.Ping(ctx); err != nil {
			return 0, nil, cluster.Stats{}, nil, err
		}
		var cores []int
		for _, w := range c.Workers() {
			cores = append(cores, w.Cores)
		}
		// One untimed warm-up map so the timed run measures steady state:
		// a real fleet's pitch-keyed coefficient caches start cold, and
		// the first map pays that fill exactly once per worker process.
		dst := make([]tensor.Stress, len(pts))
		if err := c.Map(ctx, dst, st, pl, pts, core.ModeFull, core.Options{}); err != nil {
			return 0, nil, cluster.Stats{}, nil, err
		}
		t := time.Now()
		if err := c.Map(ctx, dst, st, pl, pts, core.ModeFull, core.Options{}); err != nil {
			return 0, nil, cluster.Stats{}, nil, err
		}
		return millis(time.Since(t)), dst, c.Stats(), cores, nil
	}

	// Protocol-overhead baseline: the same map through one worker.
	oneMs, _, _, _, err := mapVia(addrs[:1])
	if err != nil {
		return nil, fmt.Errorf("one-worker map: %w", err)
	}
	// The fleet.
	clusterMs, got, stats, cores, err := mapVia(addrs)
	if err != nil {
		return nil, fmt.Errorf("cluster map: %w", err)
	}

	worst := 0.0
	for i := range got {
		if d := maxComponentDiff(got[i], want[i]); d > worst {
			worst = d
		}
	}
	if worst > ParityBudgetMPa {
		return nil, fmt.Errorf("cluster map deviates from single-process by %g MPa (budget %g)", worst, ParityBudgetMPa)
	}

	return &ClusterBench{
		NumTSV:              numTSV,
		NumPoints:           len(pts),
		NumWorkers:          len(addrs),
		WorkerCores:         cores,
		HostCPUs:            runtime.NumCPU(),
		SingleProcessMillis: singleMs,
		OneWorkerMillis:     oneMs,
		ClusterMillis:       clusterMs,
		Speedup:             oneMs / clusterMs,
		SpeedupValid:        runtime.NumCPU() >= len(addrs),
		PointsPerSec:        float64(len(pts)) / (clusterMs / 1e3),
		MaxAbsDiffMPa:       worst,
		Chunks:              stats.Chunks,
		Steals:              stats.Steals,
		Requeues:            stats.Requeues,
		GeneratedAtUnix:     time.Now().Unix(),
	}, nil
}

// spacingFor returns the grid spacing that yields about want points
// over an area in µm².
func spacingFor(area, want float64) float64 {
	if want <= 0 || area <= 0 {
		return 1
	}
	return math.Sqrt(area / want)
}

func millis(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

func maxComponentDiff(a, b tensor.Stress) float64 {
	d := abs(a.XX - b.XX)
	if v := abs(a.YY - b.YY); v > d {
		d = v
	}
	if v := abs(a.XY - b.XY); v > d {
		d = v
	}
	return d
}

// WriteClusterJSON writes the benchmark record as indented JSON.
func WriteClusterJSON(w io.Writer, r *ClusterBench) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
