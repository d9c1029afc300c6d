package interact

import (
	"math"

	"tsvstress/internal/tensor"
)

// AccumulateAt is the scalar oracle AccumulateTile is tested against:
// it adds the summed interactive stress of all packed rounds at
// (px, py) into acc, one harmonic at a time in polar form with a single
// rotation at the end, from the incident aggregates and the model's
// unit scattered coefficients (not from the Horner slab the kernels
// stream). It matches summing PairEval.StressAt over the rounds to
// round-off: the factorization on VictimRounds is an exact trig
// identity, so only summation order and recurrence rounding differ.
func (vr *VictimRounds) AccumulateAt(px, py float64, acc *tensor.Stress) {
	relX := px - vr.vicX
	relY := py - vr.vicY
	r := math.Hypot(relX, relY)
	if r < vr.rPrime {
		*acc = acc.Add(vr.interiorAt(relX, relY, r))
		return
	}
	cphi, sphi := relX/r, relY/r
	inv := vr.rPrime / r // 1/ρ̂ < 1
	inv2 := inv * inv
	pm := inv2 // ρ̂^{−m} starting at m = 2
	// cos/sin(mφ) recurrence starting at m = 2.
	cm := cphi*cphi - sphi*sphi
	sm := 2 * sphi * cphi
	var rr, tt, rt float64
	for i := 0; i < vr.nm; i++ {
		fm := float64(i + 2)
		sub := vr.mo.units[i].sub
		ic := cm*vr.ci[i] + sm*vr.si[i]    // Σ_r scale cos(mθ_r)
		is := sm*vr.ci[i] - cm*vr.si[i]    // Σ_r scale sin(mθ_r)
		ac, as := sub.ANeg*ic, sub.ANeg*is // Σ_r a cos(mθ_r), Σ_r a sin(mθ_r)
		bc, bs := sub.BNeg*ic*inv2, sub.BNeg*is*inv2
		rr += pm * ((2+fm)*ac - bc)
		tt += pm * ((2-fm)*ac + bc)
		rt += pm * (fm*as - bs)
		pm *= inv
		cm, sm = cm*cphi-sm*sphi, sm*cphi+cm*sphi
	}
	// One polar→Cartesian rotation for the victim's whole round set
	// (the r-axis at angle φ is shared by every round).
	c2, s2, cs := cphi*cphi, sphi*sphi, cphi*sphi
	acc.XX += rr*c2 - 2*rt*cs + tt*s2
	acc.YY += rr*s2 + 2*rt*cs + tt*c2
	acc.XY += (rr-tt)*cs + rt*(c2-s2)
}
