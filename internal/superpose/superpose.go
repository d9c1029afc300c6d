// Package superpose implements the linear-superposition (LS) baseline
// method of Jung et al. (DAC'11), the paper's reference [9] and the
// Stage I of its Algorithm 1: every TSV contributes its isolated
// single-TSV stress field, and contributions of TSVs within a cutoff
// distance of the simulation point are superposed.
//
// Contributions come from the paper's table look-up: a precomputed
// radial profile with linear interpolation, the mode whose run time
// Table 6 normalizes against. The exact Lamé solution it samples
// (LS.Sol) stays available as the reference tests compare against.
package superpose

import (
	"fmt"

	"tsvstress/internal/geom"
	"tsvstress/internal/lame"
	"tsvstress/internal/material"
	"tsvstress/internal/spatial"
	"tsvstress/internal/tensor"
)

// DefaultCutoff is the nearby-TSV distance of the paper (25 µm).
const DefaultCutoff = 25.0

// Options configures the LS engine.
type Options struct {
	// Cutoff is the nearby-TSV distance in µm (default 25).
	Cutoff float64
}

// tableStep is the radial look-up table resolution in µm.
const tableStep = 0.01

func (o Options) withDefaults() Options {
	if o.Cutoff <= 0 {
		o.Cutoff = DefaultCutoff
	}
	return o
}

// LS is the linear-superposition engine for one TSV structure. It is
// immutable and safe for concurrent use.
type LS struct {
	Struct material.Structure
	Sol    *lame.Solution
	opt    Options
	table  *radialTable
}

// New builds the LS engine.
func New(st material.Structure, opt Options) (*LS, error) {
	opt = opt.withDefaults()
	sol, err := lame.Solve(st)
	if err != nil {
		return nil, fmt.Errorf("superpose: %w", err)
	}
	return &LS{Struct: st, Sol: sol, opt: opt, table: newRadialTable(sol, opt.Cutoff)}, nil
}

// Cutoff returns the nearby-TSV distance in use, in µm.
func (ls *LS) Cutoff() float64 { return ls.opt.Cutoff }

// Polar returns the axisymmetric single-TSV stress profile in MPa at
// radial distance r ≥ 0 from the center (σrr, σθθ in the TSV's polar
// frame; σrθ is identically zero), from the table look-up. Batched engines use it to rotate polar→
// Cartesian in place without a per-point Atan2. Beyond the cutoff the
// value is not meaningful (callers gate on Cutoff).
func (ls *LS) Polar(r float64) tensor.Polar {
	return ls.table.at(r)
}

// Table exposes the radial look-up table backing Polar for fused batch
// kernels that inline the interpolation: the σrr and σθθ profiles
// sampled every step µm from r = 0, with linear interpolation between
// knots and the last interval clamped (exactly what Polar computes).
// The slices are the live table — callers must not mutate them.
func (ls *LS) Table() (rr, tt []float64, step float64) {
	return ls.table.rr, ls.table.tt, tableStep
}

// Contribution returns the stress contribution in MPa of a single TSV
// centered at c to the point p (zero beyond the cutoff).
func (ls *LS) Contribution(p, c geom.Point) tensor.Stress {
	rel := p.Sub(c)
	r := rel.Norm()
	if r > ls.opt.Cutoff {
		return tensor.Stress{}
	}
	if r == 0 {
		pol := ls.Sol.PolarAt(0)
		return tensor.Stress{XX: pol.RR, YY: pol.TT}
	}
	return ls.Polar(r).ToCartesian(rel.Angle())
}

// StressAt superposes the contributions, in MPa, of all indexed TSVs
// within the cutoff of p. The index must have been built over the placement's
// center points.
func (ls *LS) StressAt(p geom.Point, ix *spatial.Index) tensor.Stress {
	var s tensor.Stress
	ls.Near(p, ix, func(c geom.Point, r float64) {
		s = s.Add(ls.contributionAt(p, c, r))
	})
	return s
}

// Near visits the TSVs within the cutoff of p.
func (ls *LS) Near(p geom.Point, ix *spatial.Index, fn func(c geom.Point, r float64)) {
	ix.Near(p, ls.opt.Cutoff, func(i int, d float64) {
		fn(ix.At(i), d)
	})
}

func (ls *LS) contributionAt(p, c geom.Point, r float64) tensor.Stress {
	if r == 0 {
		pol := ls.Sol.PolarAt(0)
		return tensor.Stress{XX: pol.RR, YY: pol.TT}
	}
	rel := p.Sub(c)
	return ls.Polar(r).ToCartesian(rel.Angle())
}

// radialTable stores the axisymmetric single-TSV polar stress profile
// on a uniform radial grid for linear interpolation — the paper's
// "table look-up method".
type radialTable struct {
	rr []float64
	tt []float64
}

func newRadialTable(sol *lame.Solution, cutoff float64) *radialTable {
	n := int(cutoff/tableStep) + 2
	t := &radialTable{rr: make([]float64, n), tt: make([]float64, n)}
	for i := 0; i < n; i++ {
		p := sol.PolarAt(float64(i) * tableStep)
		t.rr[i] = p.RR
		t.tt[i] = p.TT
	}
	return t
}

func (t *radialTable) at(r float64) tensor.Polar {
	f := r / tableStep
	i := int(f)
	if i >= len(t.rr)-1 {
		i = len(t.rr) - 2
	}
	w := f - float64(i)
	return tensor.Polar{
		RR: t.rr[i]*(1-w) + t.rr[i+1]*w,
		TT: t.tt[i]*(1-w) + t.tt[i+1]*w,
	}
}
