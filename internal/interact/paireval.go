package interact

import (
	"math"

	"tsvstress/internal/geom"
	"tsvstress/internal/potential"
	"tsvstress/internal/tensor"
)

// PairEval is a precomputed evaluator for the interactive stress of one
// aggressor→victim round. It bakes the per-harmonic scattered
// coefficients (which depend on the structure and the pair pitch, but
// not on the simulation point) so that full-chip Stage II evaluation
// runs with a cos/sin recurrence and iterated powers instead of
// math.Pow/Atan2-heavy general code. It is immutable and safe for
// concurrent use.
type PairEval struct {
	model    *Model
	vic, agg geom.Point
	axX, axY float64 // unit vector victim→aggressor
	d        float64
	rPrime   float64
	// Scattered substrate coefficients per harmonic (index m−2).
	a, b []float64
}

// NewPairEval builds the evaluator for a pair; pitch must be positive.
// Rounds at bit-identical pitch share one cached coefficient pair.
func (mo *Model) NewPairEval(vic, agg geom.Point) PairEval {
	axis := agg.Sub(vic)
	d := axis.Norm()
	pe := PairEval{
		model:  mo,
		vic:    vic,
		agg:    agg,
		d:      d,
		rPrime: mo.Struct.RPrime,
	}
	if d <= 0 {
		return pe // degenerate; StressAt returns zero
	}
	pe.axX, pe.axY = axis.X/d, axis.Y/d
	pe.a, pe.b = mo.pitchCoeffs(d)
	return pe
}

// pitchCoeffs returns the shared scattered-coefficient slices for pitch
// d, computing and caching them on first use. Safe for concurrent use.
func (mo *Model) pitchCoeffs(d float64) (a, b []float64) {
	key := math.Float64bits(d)
	mo.cacheMu.Lock()
	if c, ok := mo.coeffCache[key]; ok {
		mo.cacheHits++
		mo.cacheMu.Unlock()
		return c.a, c.b
	}
	mo.cacheMu.Unlock()
	a = make([]float64, mo.MMax-1)
	b = make([]float64, mo.MMax-1)
	for m := 2; m <= mo.MMax; m++ {
		scale := potential.IncidentCoeff(m-2, mo.Lame.K, mo.Struct.RPrime, d)
		a[m-2] = mo.units[m-2].sub.ANeg * scale
		b[m-2] = mo.units[m-2].sub.BNeg * scale
	}
	mo.cacheMu.Lock()
	if c, ok := mo.coeffCache[key]; ok { // lost the race: share the winner
		mo.cacheHits++
		a, b = c.a, c.b
	} else {
		mo.coeffCache[key] = pairCoeffs{a: a, b: b}
	}
	mo.cacheMu.Unlock()
	return a, b
}

// CoeffCacheStats reports the pitch-keyed coefficient cache state:
// distinct pitches solved and the number of rounds that reused one.
func (mo *Model) CoeffCacheStats() (entries, hits int) {
	mo.cacheMu.Lock()
	defer mo.cacheMu.Unlock()
	return len(mo.coeffCache), mo.cacheHits
}

// StressAt returns the interactive stress of this round at p, in MPa
// (global Cartesian axes). Points inside the victim footprint take the
// general transmitted-field evaluator, Model.PairStress.
func (pe *PairEval) StressAt(p geom.Point) tensor.Stress {
	if pe.d <= 0 {
		return tensor.Stress{}
	}
	relX := p.X - pe.vic.X
	relY := p.Y - pe.vic.Y
	r := math.Hypot(relX, relY)
	if r < pe.rPrime {
		return pe.model.PairStress(p, pe.vic, pe.agg)
	}
	// Global angle φ of the point and local angle θ = φ − ψ.
	cphi, sphi := relX/r, relY/r
	c1 := cphi*pe.axX + sphi*pe.axY // cos θ
	s1 := sphi*pe.axX - cphi*pe.axY // sin θ

	inv := pe.rPrime / r // 1/ρ̂ < 1
	inv2 := inv * inv
	pm := inv2 // ρ̂^{−m} starting at m = 2
	// cos/sin(mθ) recurrence starting at m = 2.
	cm := c1*c1 - s1*s1
	sm := 2 * s1 * c1

	var rr, tt, rt float64
	for k := 0; k < len(pe.a); k++ {
		fm := float64(k + 2)
		u := pe.a[k] * pm
		v := pe.b[k] * pm * inv2
		rr += ((2+fm)*u - v) * cm
		tt += ((2-fm)*u + v) * cm
		rt += (fm*u - v) * sm
		// Advance to harmonic m+1 (tuple assignment evaluates the
		// right-hand side with the old cm/sm, as the recurrence needs).
		pm *= inv
		cm, sm = cm*c1-sm*s1, sm*c1+cm*s1
	}
	// Rotate the polar tensor (r-axis at angle φ) to Cartesian.
	c2, s2, cs := cphi*cphi, sphi*sphi, cphi*sphi
	return tensor.Stress{
		XX: rr*c2 - 2*rt*cs + tt*s2,
		YY: rr*s2 + 2*rt*cs + tt*c2,
		XY: (rr-tt)*cs + rt*(c2-s2),
	}
}
