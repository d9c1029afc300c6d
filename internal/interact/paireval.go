package interact

import (
	"math"

	"tsvstress/internal/geom"
	"tsvstress/internal/tensor"
)

// PairEval is the pointwise evaluator of one aggressor→victim round:
// the reference path the tile kernel is tested against. It holds only
// the round's geometry. The per-harmonic coefficients are the model's
// pitch-independent constants times a power of R′/d, which StressAt
// folds into its radial recurrence, so a PairEval costs nothing to
// build and lives on the caller's stack. It is immutable and safe for
// concurrent use.
type PairEval struct {
	model    *Model
	vic, agg geom.Point
	axX, axY float64 // unit vector victim→aggressor
	q        float64 // R′/d; 0 for a degenerate round
}

// NewPairEval builds the evaluator for a pair; a non-positive pitch
// gives a degenerate round whose StressAt is zero.
func (mo *Model) NewPairEval(vic, agg geom.Point) PairEval {
	pe := PairEval{model: mo, vic: vic, agg: agg}
	axis := agg.Sub(vic)
	if d := math.Sqrt(axis.X*axis.X + axis.Y*axis.Y); d > 0 {
		pe.axX, pe.axY, pe.q = axis.X/d, axis.Y/d, mo.Struct.RPrime/d
	}
	return pe
}

// CoeffCacheStats reports (0, 0): the model keeps no pitch-keyed
// coefficient cache. It remains only because the benchmark harness
// still reads it for its core.coeff_cache_* metrics
// (bench/cmd/tsvbench/ladder.go); it goes when those metrics do.
func (mo *Model) CoeffCacheStats() (entries, hits int) { return 0, 0 }

// StressAt returns the interactive stress of this round at p, in MPa
// (global Cartesian axes). Points inside the victim footprint take the
// general transmitted-field evaluator, Model.PairStress.
func (pe *PairEval) StressAt(p geom.Point) tensor.Stress {
	return pe.model.roundStressAt(pe.vic, pe.agg, pe.axX, pe.axY, pe.q, p)
}

// roundStressAt is PairEval.StressAt for the round from vic to agg with
// unit axis (axX, axY) and q = R′/d, taken as scalars so that
// VictimRounds.StressAtByRound evaluates its stored rounds without
// materializing a PairEval each.
func (mo *Model) roundStressAt(vic, agg geom.Point, axX, axY, q float64, p geom.Point) tensor.Stress {
	if q == 0 {
		return tensor.Stress{}
	}
	rPrime := mo.Struct.RPrime
	relX := p.X - vic.X
	relY := p.Y - vic.Y
	r := math.Hypot(relX, relY)
	if r < rPrime {
		return mo.PairStress(p, vic, agg)
	}
	// Global angle φ of the point and local angle θ = φ − ψ.
	cphi, sphi := relX/r, relY/r
	c1 := cphi*axX + sphi*axY // cos θ
	s1 := sphi*axX - cphi*axY // sin θ

	inv := rPrime / r // 1/ρ̂ < 1
	inv2 := inv * inv
	// a_m·ρ̂^{−m} = scatA[m−2]·(R′/d)^m·(R′/r)^m, so one running power of
	// R′²/(d·r) carries both the pitch and the radial decay.
	qr := q * inv
	pm := qr * qr // starting at m = 2
	// cos/sin(mθ) recurrence starting at m = 2.
	cm := c1*c1 - s1*s1
	sm := 2 * s1 * c1

	scatA, scatB := mo.scatA, mo.scatB
	scatB = scatB[:len(scatA)]
	var rr, tt, rt float64
	for k := 0; k < len(scatA); k++ {
		fm := float64(k + 2)
		u := scatA[k] * pm
		v := scatB[k] * pm * inv2
		rr += ((2+fm)*u - v) * cm
		tt += ((2-fm)*u + v) * cm
		rt += (fm*u - v) * sm
		// Advance to harmonic m+1 (tuple assignment evaluates the
		// right-hand side with the old cm/sm, as the recurrence needs).
		pm *= qr
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
