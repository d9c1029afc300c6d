package core

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"tsvstress/internal/field"
	"tsvstress/internal/geom"
	"tsvstress/internal/material"
	"tsvstress/internal/tensor"
)

// randomPlacement builds a jittered-grid placement that respects the
// minimum TSV spacing (2·R′) by construction: grid pitch minus jitter
// stays above it.
func randomPlacement(rng *rand.Rand, st material.Structure, nx, ny int) *geom.Placement {
	pitch := 2*st.RPrime + 2 + 6*rng.Float64()
	jit := (pitch - 2*st.RPrime - 0.5) / 2
	pts := make([]geom.Point, 0, nx*ny)
	for ix := 0; ix < nx; ix++ {
		for iy := 0; iy < ny; iy++ {
			pts = append(pts, geom.Pt(
				float64(ix)*pitch+jit*(2*rng.Float64()-1),
				float64(iy)*pitch+jit*(2*rng.Float64()-1),
			))
		}
	}
	return geom.NewPlacement(pts...)
}

// Differential property test for the tile kernel: over randomized
// placements, cutoffs, MMax and worker counts, the batched engine must
// match the pointwise path (mapPointwise) within parityTol at every
// point and in every mode. The two paths reassociate floating-point
// work differently (lane accumulators, packed Horner recurrences, FMA
// in the AVX2 lane kernel), so exact equality is not expected. The
// point set mixes uniform coverage with points snapped near TSV centers
// and footprint edges, where the interior/exterior classification and
// the r == 0 branch are exercised.
func TestBatchedMatchesPointwiseRandomized(t *testing.T) {
	st := material.Baseline(material.BCB)
	rng := rand.New(rand.NewSource(20130607))
	for trial := 0; trial < 8; trial++ {
		pl := randomPlacement(rng, st, 3+rng.Intn(3), 3+rng.Intn(3))
		opt := Options{
			LSCutoff:        10 + 30*rng.Float64(),
			PairPitchCutoff: 10 + 30*rng.Float64(),
			PairDistCutoff:  10 + 30*rng.Float64(),
			MMax:            2 + rng.Intn(12),
			Workers:         1 + rng.Intn(4),
		}
		a, err := New(st, pl, opt)
		if err != nil {
			t.Fatal(err)
		}

		span := 6.0 * (2*st.RPrime + 10)
		pts := make([]geom.Point, 0, 400)
		for i := 0; i < 300; i++ {
			pts = append(pts, geom.Pt(span*rng.Float64()-5, span*rng.Float64()-5))
		}
		for i := 0; i < 60; i++ {
			c := pl.TSVs[rng.Intn(pl.Len())].Center
			switch i % 3 {
			case 0: // exact center: the d² == 0 branch
				pts = append(pts, c)
			case 1: // just inside/outside the footprint edge
				ang := 2 * math.Pi * rng.Float64()
				r := st.RPrime * (0.98 + 0.04*rng.Float64())
				pts = append(pts, geom.Pt(c.X+r*math.Cos(ang), c.Y+r*math.Sin(ang)))
			default: // interior
				pts = append(pts, geom.Pt(c.X+0.5*st.RPrime*(2*rng.Float64()-1), c.Y))
			}
		}

		want := make([]tensor.Stress, len(pts))
		for _, mode := range []Mode{ModeLS, ModeInteractive, ModeFull} {
			got := a.Map(pts, mode)
			if err := a.mapPointwise(context.Background(), want, pts, mode); err != nil {
				t.Fatal(err)
			}
			for i := range pts {
				if d := stressDiff(got[i], want[i]); d > parityTol {
					t.Fatalf("trial %d mode %d: tile kernel diverges from pointwise path at %v by %g MPa\n tile=%+v\n ref=%+v",
						trial, mode, pts[i], d, got[i], want[i])
				}
			}
		}
	}
}

func stressDiff(a, b tensor.Stress) float64 {
	return math.Max(math.Abs(a.XX-b.XX), math.Max(math.Abs(a.YY-b.YY), math.Abs(a.XY-b.XY)))
}

// The batched engine must not allocate per call once its scratch pools
// are warm: lanes and candidate buffers are grow-only and the Tiling is
// pooled, so a steady-state sweep (the incremental engine's flush loop,
// the server's session evaluations) stays off the garbage collector.
// Workers: 1 keeps goroutine spawning out of the measurement;
// AllocsPerRun pins GOMAXPROCS to 1 anyway. The sweep is unmasked and
// includes every TSV center, so the interior (liner/body) path is part
// of the measurement. Under the race detector sync.Pool drops pooled
// items at random, so the pools reallocate and the count is only
// asserted in non-race builds; the sweep itself still runs.
func TestMapIntoZeroAllocSteadyState(t *testing.T) {
	requireZeroAllocMapInto(t, Options{Workers: 1})
}

// TestDefaultWorkersFollowGOMAXPROCS pins the Workers default to
// GOMAXPROCS rather than the host's CPU count: under GOMAXPROCS(1),
// Options{} resolves to one worker, and its steady-state MapInto
// allocates nothing, like an explicit Workers: 1.
func TestDefaultWorkersFollowGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if w := (Options{}).withDefaults().Workers; w != 1 {
		t.Fatalf("Options{} resolves to %d workers under GOMAXPROCS(1), want 1", w)
	}
	requireZeroAllocMapInto(t, Options{})
}

// requireZeroAllocMapInto maps a 16-TSV placement's unmasked point set
// with opt and fails if a warm MapInto allocates.
func requireZeroAllocMapInto(t *testing.T, opt Options) {
	t.Helper()
	st := material.Baseline(material.BCB)
	rng := rand.New(rand.NewSource(7))
	pl := randomPlacement(rng, st, 4, 4)
	an, err := New(st, pl, opt)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]geom.Point, 2048)
	for i := range pts {
		pts[i] = geom.Pt(60*rng.Float64(), 60*rng.Float64())
	}
	pts = append(pts, pl.Centers()...)
	if inside := len(pts) - len(field.Masked(pts, field.OutsideTSVs(pl, st.RPrime))); inside < 100 {
		t.Fatalf("only %d of %d points inside a footprint", inside, len(pts))
	}
	dst := make([]tensor.Stress, len(pts))
	ctx := context.Background()
	if err := an.MapInto(ctx, dst, pts, ModeFull); err != nil { // warm pools
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if err := an.MapInto(ctx, dst, pts, ModeFull); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 && !raceEnabled {
		t.Fatalf("MapInto (Workers %d) allocates %.1f times per steady-state call, want 0", an.Options().Workers, avg)
	}
}
