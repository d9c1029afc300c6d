// Package superpose implements the linear-superposition (LS) baseline
// method of Jung et al. (DAC'11), the paper's reference [9] and the
// Stage I of its Algorithm 1: every TSV contributes its isolated
// single-TSV stress field, and contributions of TSVs within a cutoff
// distance of the simulation point are superposed.
//
// The paper reads that field from a table because [9]'s profile comes
// from FEM. Here the profile is the closed-form Lamé solution, so every
// contribution is evaluated exactly from per-ring constants (Profile).
// LS.Sol stays available as the independent reference tests compare
// against.
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

func (o Options) withDefaults() Options {
	if o.Cutoff <= 0 {
		o.Cutoff = DefaultCutoff
	}
	return o
}

// Profile is the single-TSV stress field in closed form. In every ring
// σrr = A + B/r² and σθθ = A − B/r² (σrθ ≡ 0), which in Cartesian
// components at offset d = p − c from the center reads
//
//	σxx = A + B(dx²−dy²)/r⁴,  σyy = A − B(dx²−dy²)/r⁴,  σxy = 2B·dx·dy/r⁴
//
// with A = body stress and B = 0 in the body, A and B = −E/(1+ν)·Bl in
// the liner, and A = 0 and B = K in the substrate (Eq. 6). The lane
// kernels (lanes_amd64.s) read the fields by name through go_asm.h.
type Profile struct {
	// r2 and rPrime2 are the squared ring radii: a point is in the body
	// when d² < r2 and in the liner when r2 ≤ d² < rPrime2.
	r2, rPrime2    float64
	bodyA          float64
	linerA, linerB float64
	subB           float64
}

func newProfile(sol *lame.Solution) Profile {
	s, pl := sol.Struct, sol.Plane
	c, l := s.Body, s.Liner
	return Profile{
		r2:      s.R * s.R,
		rPrime2: s.RPrime * s.RPrime,
		bodyA:   c.PlaneModulus(pl) * (sol.Ac - c.EffectiveCTE(pl)*s.DeltaT),
		linerA:  l.PlaneModulus(pl) * (sol.Al - l.EffectiveCTE(pl)*s.DeltaT),
		linerB:  -l.E / (1 + l.Nu) * sol.Bl,
		subB:    sol.K,
	}
}

// At returns the Cartesian stress components in MPa at offset (dx, dy)
// from the TSV center, with d2 = dx² + dy². It has no sqrt, no angle
// and no special case at the center (the body term carries no B).
func (f *Profile) At(dx, dy, d2 float64) (xx, yy, xy float64) {
	if d2 < f.r2 {
		return f.bodyA, f.bodyA, 0
	}
	a, b := 0.0, f.subB
	if d2 < f.rPrime2 {
		a, b = f.linerA, f.linerB
	}
	w := b / (d2 * d2)
	h := w * (dx*dx - dy*dy)
	return a + h, a - h, 2 * w * dx * dy
}

// AccumTile adds, for every point (px[i], py[i]), the contribution of
// every candidate center (cx[k], cy[k]) with d² ≤ cut2 into the
// accumulator lanes sxx, syy, sxy: the SoA form of summing At per
// point. Each point sums its candidates in k order through At's
// operations, so the lanes come out bit-identical whichever kernel
// runs, and out-of-range candidates leave a point's bits untouched.
//
// On amd64 hosts the bulk of the points runs eight per instruction with
// AVX-512, or four with AVX2 and FMA (accumLanes); this loop takes the
// n mod 4 tail, and the whole sweep elsewhere.
//
// cx and cy must have equal length, as must px, py, sxx, syy and sxy.
func (f *Profile) AccumTile(cx, cy, px, py, sxx, syy, sxy []float64, cut2 float64) {
	n := len(px)
	if len(cy) != len(cx) || len(py) != n || len(sxx) != n || len(syy) != n || len(sxy) != n {
		panic("superpose: AccumTile lane length mismatch")
	}
	lo := f.accumLanes(cx, cy, px, py, sxx, syy, sxy, cut2)
	px, py, sxx, syy, sxy = px[lo:], py[lo:n], sxx[lo:n], syy[lo:n], sxy[lo:n]
	for k := range cx {
		ccx, ccy := cx[k], cy[k]
		for i := range px {
			dx := px[i] - ccx
			dy := py[i] - ccy
			d2 := dx*dx + dy*dy
			if d2 > cut2 {
				continue
			}
			xx, yy, xy := f.At(dx, dy, d2)
			sxx[i] += xx
			syy[i] += yy
			sxy[i] += xy
		}
	}
}

// LS is the linear-superposition engine for one TSV structure. It is
// immutable and safe for concurrent use.
type LS struct {
	Struct material.Structure
	Sol    *lame.Solution
	opt    Options
	prof   Profile
}

// New builds the LS engine.
func New(st material.Structure, opt Options) (*LS, error) {
	opt = opt.withDefaults()
	sol, err := lame.Solve(st)
	if err != nil {
		return nil, fmt.Errorf("superpose: %w", err)
	}
	return &LS{Struct: st, Sol: sol, opt: opt, prof: newProfile(sol)}, nil
}

// Cutoff returns the nearby-TSV distance in use, in µm.
func (ls *LS) Cutoff() float64 { return ls.opt.Cutoff }

// Profile returns the closed-form single-TSV field every contribution
// is evaluated from; the tile kernel sweeps it with AccumTile.
func (ls *LS) Profile() Profile { return ls.prof }

// StressAt superposes the contributions, in MPa, of all indexed TSVs
// within the cutoff of p. The index must have been built over the placement's
// center points.
func (ls *LS) StressAt(p geom.Point, ix *spatial.Index) tensor.Stress {
	var s tensor.Stress
	ix.Near(p, ls.opt.Cutoff, func(i int, _ float64) {
		c := ix.At(i)
		dx, dy := p.X-c.X, p.Y-c.Y
		xx, yy, xy := ls.prof.At(dx, dy, dx*dx+dy*dy)
		s.XX += xx
		s.YY += yy
		s.XY += xy
	})
	return s
}
