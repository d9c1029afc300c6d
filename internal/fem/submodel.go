package fem

import (
	"fmt"
	"math"

	"tsvstress/internal/geom"
	"tsvstress/internal/material"
	"tsvstress/internal/tensor"
)

// SubmodelOptions configures the two-scale golden solver.
type SubmodelOptions struct {
	// GlobalH is the coarse mesh size of the global Richardson pair
	// (default 0.25 ⇒ global meshes at 0.25 and 0.125).
	GlobalH float64
	// PatchHalf caps the polar patch's annulus radius (default 6 µm).
	PatchHalf float64
	// CoreHalf is the radius around a TSV center within which a patch
	// overrides the global field (default 4.5 µm, automatically shrunk
	// with the patch when neighbours are close).
	CoreHalf float64
	// Polar mesh controls (defaults in PolarPatchOptions).
	PolarDR     float64
	PolarNTheta int
	// Base carries remaining solver options.
	Base Options
}

func (o SubmodelOptions) withDefaults() SubmodelOptions {
	if o.GlobalH <= 0 {
		o.GlobalH = 0.25
	}
	if o.PatchHalf <= 0 {
		o.PatchHalf = 6
	}
	if o.CoreHalf <= 0 {
		o.CoreHalf = 4.5
	}
	return o
}

// Submodel is the production golden reference: a Richardson-extrapolated
// global solve plus fine patches around every TSV, driven by boundary
// displacements interpolated from the global fine mesh (classic FEM
// submodeling / zooming). Near-interface stress — where the paper's
// critical region lives — comes from the patches; the far field from
// the global solve. The patches are polar-meshed so the body/liner and
// liner/substrate interfaces are resolved exactly.
type Submodel struct {
	Global  *RichardsonResult
	Centers []geom.Point
	Patches []Field
	cores   []float64
	opt     SubmodelOptions
}

// SolveSubmodel builds the two-scale golden for a placement.
func SolveSubmodel(pl *geom.Placement, st material.Structure, domain geom.Rect, opt SubmodelOptions) (*Submodel, error) {
	opt = opt.withDefaults()
	if opt.CoreHalf >= opt.PatchHalf {
		return nil, fmt.Errorf("fem: CoreHalf %g must be below PatchHalf %g", opt.CoreHalf, opt.PatchHalf)
	}
	gOpt := opt.Base
	gOpt.H = opt.GlobalH
	global, err := SolveRichardson(pl, st, domain, gOpt)
	if err != nil {
		return nil, fmt.Errorf("fem: submodel global: %w", err)
	}
	sm := &Submodel{Global: global, opt: opt}
	bc := func(p geom.Point) (float64, float64) {
		// Drive patches with the global *fine* solution: displacement
		// is the primary FEM variable and is already accurate away
		// from the interfaces, which is where the patch boundaries sit.
		return global.Fine.DisplacementAt(p)
	}
	for i, t := range pl.TSVs {
		core := opt.CoreHalf
		// Shrink the annulus so a neighbouring TSV's liner stays outside
		// it (its staircased interface would otherwise sit inside the
		// fine patch).
		rOut := opt.PatchHalf
		dNear := math.Inf(1)
		for k, o := range pl.TSVs {
			if k == i {
				continue
			}
			if d := o.Center.Dist(t.Center); d < dNear {
				dNear = d
			}
		}
		if cap := dNear - st.RPrime - 0.2; cap < rOut {
			rOut = cap
		}
		if rOut < st.RPrime+0.8 {
			rOut = st.RPrime + 0.8 // accept neighbour blending
		}
		if c := rOut - 0.6; c < core {
			core = c
		}
		patch, err := SolvePolarPatch(pl, st, t.Center, PolarPatchOptions{
			ROut:         rOut,
			DR:           opt.PolarDR,
			NTheta:       opt.PolarNTheta,
			Plane:        opt.Base.Plane,
			BoundaryDisp: bc,
			SubSamples:   opt.Base.SubSamples,
		})
		if err != nil {
			return nil, fmt.Errorf("fem: polar patch at %v: %w", t.Center, err)
		}
		sm.Centers = append(sm.Centers, t.Center)
		sm.Patches = append(sm.Patches, patch)
		sm.cores = append(sm.cores, core)
	}
	return sm, nil
}

// StressAt samples the two-scale field in MPa: the nearest patch wins
// inside its core radius, the global field elsewhere.
func (sm *Submodel) StressAt(p geom.Point) tensor.Stress {
	best := -1
	bestD := math.Inf(1)
	for i, c := range sm.Centers {
		if d := c.Dist(p); d <= sm.cores[i] && d < bestD {
			best, bestD = i, d
		}
	}
	if best >= 0 {
		return sm.Patches[best].StressAt(p)
	}
	return sm.Global.StressAt(p)
}

var _ Field = (*Submodel)(nil)
