// Package core implements the paper's primary contribution: the
// two-stage semi-analytical full-chip TSV-induced stress modeling
// framework (Algorithm 1).
//
// Stage I performs linear superposition of single-TSV contributions of
// TSVs within a cutoff distance of each simulation point (the
// closed-form Lamé profile, superpose.Profile). Stage II adds the
// interactive-stress contribution of every nearby TSV pair: for a
// simulation point, a pair participates in one aggressor→victim round
// when the pair pitch is within PairPitchCutoff and the victim lies
// within PairDistCutoff of the point; both orderings of a pair are
// separate rounds, exactly as in Section 4 of the paper. Both stages
// are O(n) in the number of simulation points.
package core

//tsvlint:apiboundary

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"tsvstress/internal/geom"
	"tsvstress/internal/interact"
	"tsvstress/internal/material"
	"tsvstress/internal/spatial"
	"tsvstress/internal/superpose"
	"tsvstress/internal/tensor"
)

// Options configures the analyzer. Zero values select the paper's
// defaults.
type Options struct {
	// LSCutoff is the Stage I nearby-TSV distance in µm (default 25).
	LSCutoff float64
	// PairPitchCutoff is the maximum pair pitch considered in Stage II
	// (default 25 µm).
	PairPitchCutoff float64
	// PairDistCutoff is the maximum victim-to-point distance considered
	// in Stage II (default 25 µm).
	PairDistCutoff float64
	// MMax is the interactive-series truncation (default 10).
	MMax int
	// Workers bounds the parallelism of Map calls (default GOMAXPROCS).
	Workers int
}

func (o Options) withDefaults() Options {
	if o.LSCutoff <= 0 {
		o.LSCutoff = superpose.DefaultCutoff
	}
	if o.PairPitchCutoff <= 0 {
		o.PairPitchCutoff = 25
	}
	if o.PairDistCutoff <= 0 {
		o.PairDistCutoff = 25
	}
	if o.MMax <= 0 {
		o.MMax = interact.DefaultMMax
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Resolved returns the options with every zero field replaced by its
// default — the exact configuration New would run under. A cluster
// coordinator ships resolved options so every worker solves the same
// models regardless of its own defaults; Workers stays as given (0 lets
// each process size its own parallelism without affecting values).
func (o Options) Resolved() Options {
	w := o.Workers
	o = o.withDefaults()
	o.Workers = w
	return o
}

// GatherCutoff returns the per-tile gather radius (µm) MapInto would
// partition with for the given mode: the largest cutoff among the
// stages the mode evaluates. It is the cutoff a remote evaluator must
// build its Tiling with to reproduce MapInto's partition.
func (o Options) GatherCutoff(mode Mode) float64 {
	o = o.withDefaults()
	cutoff := 0.0
	if mode == ModeLS || mode == ModeFull {
		cutoff = o.LSCutoff
	}
	if (mode == ModeFull || mode == ModeInteractive) && o.PairDistCutoff > cutoff {
		cutoff = o.PairDistCutoff
	}
	return cutoff
}

// Analyzer is the full-chip stress analyzer for one placement. It is
// immutable after New and safe for concurrent use.
type Analyzer struct {
	Struct    material.Structure
	Placement *geom.Placement
	LS        *superpose.LS
	Model     *interact.Model
	opt       Options

	idx *spatial.Index
	// pairEvals[j] holds one evaluator per aggressor→victim round with
	// victim j (aggressors within PairPitchCutoff of TSV j).
	pairEvals [][]interact.PairEval
	// victimRounds[j] is the structure-of-arrays packing of pairEvals[j]
	// used by the tile-batched engine (nil when TSV j has no rounds).
	victimRounds []*interact.VictimRounds
	numPairs     int

	// Scratch pools for the batched engine (see batch.go).
	mapPool  sync.Pool
	tilePool sync.Pool
}

// New builds the analyzer: it solves the single-TSV model (the Stage I
// profile constants), solves the per-harmonic interactive systems, and
// builds the spatial index and the per-victim pair evaluators.
func New(st material.Structure, pl *geom.Placement, opt Options) (*Analyzer, error) {
	opt = opt.withDefaults()
	if err := pl.Validate(2 * st.RPrime); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	ls, err := superpose.New(st, superpose.Options{Cutoff: opt.LSCutoff})
	if err != nil {
		return nil, err
	}
	model, err := interact.New(st, opt.MMax)
	if err != nil {
		return nil, err
	}
	a := &Analyzer{
		Struct:    st,
		Placement: pl,
		LS:        ls,
		Model:     model,
		opt:       opt,
		idx:       spatial.NewIndex(pl.Centers(), maxF(opt.LSCutoff, opt.PairDistCutoff)),
	}
	// Build per-victim pair rounds; rounds at equal pitch share one
	// coefficient pair via the model's pitch-keyed cache.
	a.pairEvals = make([][]interact.PairEval, pl.Len())
	a.victimRounds = make([]*interact.VictimRounds, pl.Len())
	for j, vic := range pl.TSVs {
		a.idx.Near(vic.Center, opt.PairPitchCutoff, func(i int, d float64) {
			if i == j || d <= 0 {
				return
			}
			a.pairEvals[j] = append(a.pairEvals[j], model.NewPairEval(vic.Center, pl.TSVs[i].Center))
			a.numPairs++
		})
		a.victimRounds[j] = interact.PackRounds(a.pairEvals[j])
	}
	return a, nil
}

// NumPairRounds returns the total number of aggressor→victim rounds.
func (a *Analyzer) NumPairRounds() int { return a.numPairs }

// Options returns the effective options (after defaulting).
func (a *Analyzer) Options() Options { return a.opt }

// StressLS returns the Stage I (linear superposition) stress at p in
// MPa — the baseline method of [9].
func (a *Analyzer) StressLS(p geom.Point) tensor.Stress {
	return a.LS.StressAt(p, a.idx)
}

// Interactive returns the Stage II correction at p in MPa: the
// superposed interactive-stress contributions of all nearby pair
// rounds.
func (a *Analyzer) Interactive(p geom.Point) tensor.Stress {
	var s tensor.Stress
	a.idx.Near(p, a.opt.PairDistCutoff, func(j int, _ float64) {
		evs := a.pairEvals[j]
		for k := range evs {
			s = s.Add(evs[k].StressAt(p))
		}
	})
	return s
}

// StressAt returns the proposed-framework stress at p in MPa: Stage I
// plus Stage II.
func (a *Analyzer) StressAt(p geom.Point) tensor.Stress {
	return a.StressLS(p).Add(a.Interactive(p))
}

// Mode selects which field a Map call evaluates.
type Mode int

const (
	// ModeLS evaluates Stage I only (the baseline).
	ModeLS Mode = iota
	// ModeFull evaluates Stage I + Stage II (the proposed framework).
	ModeFull
	// ModeInteractive evaluates Stage II only (diagnostics/ablation).
	ModeInteractive
)

// Map evaluates the selected field at every point in parallel through
// the tile-batched engine (see batch.go); use MapInto to stream into a
// reusable destination buffer (and to pass a cancellation context)
// instead.
func (a *Analyzer) Map(pts []geom.Point, mode Mode) []tensor.Stress {
	out := make([]tensor.Stress, len(pts))
	_ = a.MapInto(context.Background(), out, pts, mode) // length matches by construction
	return out
}

// mapPointwise is the reference evaluation path: per-point hash queries
// with static chunking across workers. It backs tiny Map calls, the
// parity tests and the before/after benchmarks. A batch this small is
// one unit of cancellation (the tile analogue), checked on entry only;
// kernel panics are contained like the batched path's.
func (a *Analyzer) mapPointwise(ctx context.Context, dst []tensor.Stress, pts []geom.Point, mode Mode) error {
	if ctx != nil && ctx.Err() != nil {
		return &CancelError{TilesDone: 0, TilesTotal: 1, Cause: ctx.Err()}
	}
	var eval func(geom.Point) tensor.Stress
	switch mode {
	case ModeLS:
		eval = a.StressLS
	case ModeInteractive:
		eval = a.Interactive
	default:
		eval = a.StressAt
	}
	workers := a.opt.Workers
	if workers > len(pts) {
		workers = len(pts)
	}
	if workers <= 1 {
		return evalRange(eval, dst, pts, 0, len(pts))
	}
	var wg sync.WaitGroup
	chunk := (len(pts) + workers - 1) / workers
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(pts) {
			hi = len(pts)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			errs[w] = evalRange(eval, dst, pts, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// evalRange evaluates dst[lo:hi] pointwise, recovering a kernel panic
// into a *PanicError on the calling goroutine.
func evalRange(eval func(geom.Point) tensor.Stress, dst []tensor.Stress, pts []geom.Point, lo, hi int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	for i := lo; i < hi; i++ {
		dst[i] = eval(pts[i])
	}
	return nil
}

func errDstLen(dst, pts int) error {
	return fmt.Errorf("core: MapInto dst has %d slots for %d points", dst, pts)
}

func errNonFinitePoint(i int, p geom.Point) error {
	return fmt.Errorf("core: point %d (%g, %g) is not finite", i, p.X, p.Y)
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
