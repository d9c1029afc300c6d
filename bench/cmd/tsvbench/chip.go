package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"tsvstress/internal/core"
	"tsvstress/internal/field"
	"tsvstress/internal/geom"
	"tsvstress/internal/placegen"
	"tsvstress/internal/serve"
	"tsvstress/internal/tensor"
)

const (
	// chipPoints is the masked grid size of a chip workload, the size of
	// the paper's Table 6 runs.
	chipPoints = 200_000
	// chipSetups is how many times a run builds its analyzer; setup_s is
	// their median.
	chipSetups = 5
	// chipSample is how many grid points are checked pointwise.
	chipSample = 2000
)

// chipInputs returns a chip workload's placement and masked grid.
// chip-random is 1000 TSVs at the Table 6 density of 1e-2/µm², whose
// pitches are nearly all distinct; chip-array is a 32×32 array at 10 µm
// pitch (the same density), whose pitches are a handful.
func chipInputs(name string, seed int64, tiny bool) (*geom.Placement, []geom.Point, error) {
	n, pts := 1000, chipPoints
	if tiny {
		n, pts = 64, 6000
	}
	var pl *geom.Placement
	switch name {
	case "chip-random":
		var err error
		if pl, err = placegen.Random(n, 1e-2, minPitch+1, seed); err != nil {
			return nil, nil, err
		}
	case "chip-array":
		side := int(math.Sqrt(float64(n)))
		pl = placegen.Array(side, side, 10)
	default:
		return nil, nil, fmt.Errorf("unknown chip workload %q", name)
	}
	region := pl.Bounds(5)
	// Oversample ~15% so the footprint mask still leaves ~pts points.
	g, err := field.NewGrid(region, math.Sqrt(region.Area()/(float64(pts)*1.15)))
	if err != nil {
		return nil, nil, err
	}
	return pl, field.Masked(g.Points(), field.OutsideTSVs(pl, structure.RPrime)), nil
}

// chipTimed alternates LS and Full maps of the whole chip for dur,
// closed loop. lags are the gaps between one map's end and the next
// one's start.
type chipTimed struct {
	ls, full, lags []time.Duration
	failed         int
	elapsed        time.Duration
}

func runChipLoop(ctx context.Context, an *core.Analyzer, pts []geom.Point, dstLS, dstFull []tensor.Stress, dur time.Duration, tr *tracer) chipTimed {
	var out chipTimed
	phase := tr.begin("phase", -1, -1)
	start := time.Now()
	prevEnd := start
	for op := 0; time.Since(start) < dur; op++ {
		mode, dst, lat, name := core.ModeLS, dstLS, &out.ls, "map:ls"
		if op%2 == 1 {
			mode, dst, lat, name = core.ModeFull, dstFull, &out.full, "map:full"
		}
		t0 := time.Now()
		out.lags = append(out.lags, t0.Sub(prevEnd))
		id := tr.begin(name, phase, op)
		if err := an.MapInto(ctx, dst, pts, mode); err != nil {
			out.failed++
		}
		tr.end(id)
		prevEnd = time.Now()
		*lat = append(*lat, prevEnd.Sub(t0))
	}
	out.elapsed = time.Since(start)
	tr.end(phase)
	return out
}

// checkChip compares a seeded sample of the last LS and Full maps with
// the pointwise StressLS and StressAt paths, and returns the number of
// maps (of the two) that disagree anywhere in the sample.
func checkChip(an *core.Analyzer, pts []geom.Point, dstLS, dstFull []tensor.Stress, seed int64) (bad int, msgs []string) {
	rng := rand.New(rand.NewSource(seed ^ 0x5a17))
	n := min(chipSample, len(pts))
	idx := rng.Perm(len(pts))[:n]
	for _, c := range []struct {
		name string
		dst  []tensor.Stress
		ref  func(geom.Point) tensor.Stress
	}{{"ls", dstLS, an.StressLS}, {"full", dstFull, an.StressAt}} {
		for _, i := range idx {
			if d := maxDiff(c.dst[i], c.ref(pts[i])); d > parityTolMPa {
				bad++
				msgs = append(msgs, fmt.Sprintf("%s map differs from the pointwise path by %g MPa at point %d", c.name, d, i))
				break
			}
		}
	}
	return bad, msgs
}

func maxDiff(a, b tensor.Stress) float64 {
	return max(math.Abs(a.XX-b.XX), math.Abs(a.YY-b.YY), math.Abs(a.XY-b.XY))
}

// runChip runs chip-random or chip-array: a batch user mapping a whole
// chip in both modes, all in this process.
func runChip(ctx context.Context, cfg config) (*runResult, error) {
	pl, pts, err := chipInputs(cfg.workload, cfg.seed, cfg.tiny)
	if err != nil {
		return nil, err
	}
	res := newRunResult()
	dstLS := make([]tensor.Stress, len(pts))
	dstFull := make([]tensor.Stress, len(pts))

	// Set-up: build the analyzer and warm both modes once.
	var an *core.Analyzer
	var setups []float64
	for k := 0; k < chipSetups; k++ {
		// Collect the previous analyzer first, so every set-up starts
		// from the same heap and the peak resident set does not depend
		// on when the collector happened to run.
		an = nil
		runtime.GC()
		t0 := time.Now()
		if an, err = core.New(structure, pl, core.Options{}); err != nil {
			return nil, err
		}
		if err := an.MapInto(ctx, dstLS, pts, core.ModeLS); err != nil {
			return nil, err
		}
		if err := an.MapInto(ctx, dstFull, pts, core.ModeFull); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.note("%d TSVs, %d points, %d pair rounds", pl.Len(), len(pts), an.NumPairRounds())

	var timed chipTimed
	var tr *tracer
	if cfg.trace {
		// Half the time untraced, half traced: the difference of their
		// medians is the tracing overhead.
		untraced := runChipLoop(ctx, an, pts, dstLS, dstFull, cfg.seconds/2, nil)
		tr = newTracer()
		timed = runChipLoop(ctx, an, pts, dstLS, dstFull, cfg.seconds/2, tr)
		res.layer["trace.overhead_pct"] = overheadPct(untraced.ls, timed.ls)
		res.count(len(untraced.ls)+len(untraced.full), untraced.failed)
	} else {
		timed = runChipLoop(ctx, an, pts, dstLS, dstFull, cfg.seconds, nil)
	}
	res.count(len(timed.ls)+len(timed.full), timed.failed)
	bad, msgs := checkChip(an, pts, dstLS, dstFull, cfg.seed)
	res.check(2, bad, msgs...)

	lsMs, fullMs := sortedMs(timed.ls), sortedMs(timed.full)
	res.e2e["p50_ms"] = hdQuantile(lsMs, 0.5)
	res.e2e["peak_p50_ms"] = hdQuantile(fullMs, 0.5)
	res.e2e["goodput_rps"] = float64(len(lsMs)+len(fullMs)-timed.failed) / timed.elapsed.Seconds()
	res.e2e["setup_s"] = median(setups)
	res.note("ls: %s, %.1f Mpts/s", tailNote(lsMs), float64(len(pts))/res.e2e["p50_ms"]/1e3)
	res.note("full: %s, %.1f Mpts/s", tailNote(fullMs), float64(len(pts))/res.e2e["peak_p50_ms"]/1e3)

	if cfg.trace {
		res.layer["gen.lag_p99_ms"] = quantile(sortedMs(timed.lags), 0.99)
		res.layer["gen.offered_rps"] = float64(len(timed.lags)) / timed.elapsed.Seconds()
		res.layer["gen.sent"] = float64(len(timed.lags))
		// The ladder's serving rungs need a replica and a gateway; a
		// chip session is served at the default 1 µm grid.
		bins, err := buildBinaries(cfg.root, cfg.binDir())
		if err != nil {
			return nil, err
		}
		topo, err := startTopology(bins, cfg.runDir("ladder"), 1)
		if err != nil {
			return nil, err
		}
		defer topo.stop()
		rng := rand.New(rand.NewSource(cfg.seed))
		in := ladderInput{
			req: serve.CreateRequest{TSVs: wireOf(pl), Mode: "full", Spacing: 1, Margin: 5},
			pts: pts,
		}
		in.edits = drawBatches(rng, pl, moveBatch)
		before, err := serviceCounters(ctx, topo)
		if err != nil {
			return nil, err
		}
		if err := runLadder(ctx, cfg, in, topo, tr, res); err != nil {
			return nil, err
		}
		after, err := serviceCounters(ctx, topo)
		if err != nil {
			return nil, err
		}
		recordCounters(res, before, after)
		if err := tr.write(cfg.tracePath()); err != nil {
			return nil, err
		}
	}
	kb, err := hwmKB("self")
	if err != nil {
		return nil, err
	}
	res.e2e["peak_rss_mb"] = float64(kb) / 1024
	return res, nil
}

// overheadPct is the traced median's excess over the untraced one, in
// percent.
func overheadPct(untraced, traced []time.Duration) float64 {
	u, t := hdQuantile(sortedMs(untraced), 0.5), hdQuantile(sortedMs(traced), 0.5)
	return (t - u) / u * 100
}
