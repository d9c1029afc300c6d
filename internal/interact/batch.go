//tsvlint:hotpath

package interact

import (
	"math"

	"tsvstress/internal/geom"
	"tsvstress/internal/tensor"
)

// VictimRounds packs every aggressor→victim round sharing one victim
// TSV into an aggregated per-harmonic form for tile-batched Stage II
// evaluation.
//
// Every round of a victim sees the same point geometry (relative
// vector, its norm r, the polar angle φ and the decay base R′/r); a
// round only differs by its axis angle ψ and its pitch d, and its
// scattered coefficients are the placement-independent unit solutions
// (the paper's h_ij(m)) times the incident coefficient scale_m(d)
// (potential.IncidentCoeff): a_m = ANeg_m·scale_m(d), b_m likewise.
// With θ = φ − ψ the sum over rounds factorizes:
//
//	Σ_r a_m^r cos(mθ_r) = ANeg_m·(cos(mφ)·ci_m + sin(mφ)·si_m)
//	ci_m = Σ_r scale_m(d_r) cos(mψ_r),  si_m = Σ_r scale_m(d_r) sin(mψ_r)
//
// so a point costs O(MMax) however many rounds the victim has — the
// structural speedup that makes dense full-chip Stage II tractable.
// Inside the victim the profiles are scale_m(d)·P_m(ρ) with P_m pitch
// independent (Model.inner), so the same ci, si serve interior points
// (interiorAt). The rounds' geometry is kept too, for the pointwise
// reference path (StressAtByRound). A VictimRounds is immutable after
// PackRounds and safe for concurrent use.
type VictimRounds struct {
	vicX, vicY float64
	rPrime     float64
	k          float64 // R/R′: body/liner interface in scaled radius
	nm         int     // harmonics (MMax−1)
	mo         *Model

	// SoA complex-Horner state for AccumulateTile (see the derivation
	// there). horner is step-major, hornerStride floats per harmonic
	// index i: [γRe, γIm, (i+2)·γRe, (i+2)·γIm, βRe, βIm] with
	// γ_i = ANeg_i·(ci[i] − i·si[i]) and β_i = BNeg_i·(ci[i] − i·si[i]),
	// so one Horner step streams a single 48-byte run.
	horner []float64
	// ci, si are the incident aggregates (index m−2) interiorAt reads.
	ci, si []float64
	// rounds holds roundStride floats per packed round. horner, ci, si
	// and rounds share one slab.
	rounds []float64
	// rp2Guard is R′²·(1+guard): below it the exterior/interior
	// classification recomputes math.Hypot so it is bit-identical to
	// the scalar paths (σθθ jumps across Γ1, so a 1-ulp disagreement
	// would not be a round-off-level diff).
	rp2Guard float64
	rp2      float64 // R′²
	rpInv2   float64 // 1/R′²
}

// hornerStride is the number of packed lanes per harmonic in the
// step-major Horner slab.
const hornerStride = 6

// hornerStep is one harmonic's packed coefficient run.
type hornerStep [hornerStride]float64

// step returns harmonic index i's run of the Horner slab.
func (vr *VictimRounds) step(i int) *hornerStep {
	return (*hornerStep)(vr.horner[hornerStride*i:])
}

// roundStride is the number of floats per packed round: the aggressor
// center (x, y), the unit axis victim→aggressor (x, y) and q = R′/d,
// exactly the geometry NewPairEval derives.
const roundStride = 5

// PackRounds packs the rounds of the victim centered at vic against
// each aggressor center in aggs. Degenerate rounds (an aggressor at the
// victim center) contribute zero and are dropped. Returns nil when no
// evaluable round remains. The result owns its storage: one struct and
// one slab, whatever the round count.
func (mo *Model) PackRounds(vic geom.Point, aggs []geom.Point) *VictimRounds {
	if len(aggs) == 0 {
		return nil
	}
	nm := mo.MMax - 1
	rp := mo.Struct.RPrime
	slab := make([]float64, (hornerStride+2)*nm+roundStride*len(aggs))
	ci := slab[hornerStride*nm : (hornerStride+1)*nm]
	si := slab[(hornerStride+1)*nm : (hornerStride+2)*nm]
	geo := slab[(hornerStride+2)*nm:]
	vr := &VictimRounds{
		vicX:   vic.X,
		vicY:   vic.Y,
		rPrime: rp,
		k:      mo.Struct.K(),
		nm:     nm,
		mo:     mo,
		horner: slab[:hornerStride*nm],
		ci:     ci,
		si:     si,
	}
	n := 0
	kr := -mo.Lame.K / (rp * rp)
	for _, agg := range aggs {
		axis := agg.Sub(vic)
		d := math.Sqrt(axis.X*axis.X + axis.Y*axis.Y) // as NewPairEval
		if d <= 0 {
			continue
		}
		c1, s1, q := axis.X/d, axis.Y/d, rp/d
		g := geo[roundStride*n : roundStride*(n+1)]
		g[0], g[1], g[2], g[3], g[4] = agg.X, agg.Y, c1, s1, q
		n++
		// The incident coefficient is scale_m = −(K/R′²)·(m−1)·q^m
		// (potential.IncidentCoeff), so scale_m·e^{imψ} is −(K/R′²)·(m−1)
		// times z^m with z = q·e^{iψ}: one complex recurrence from m = 2
		// carries the decay and the axis angle, and the harmonic's
		// constant factor multiplies the sum once, below.
		zr, zi := q*c1, q*s1
		cr, cim := zr*zr-zi*zi, 2*zr*zi
		for i := range ci {
			ci[i] += cr
			si[i] += cim
			cr, cim = cr*zr-cim*zi, cim*zr+cr*zi
		}
	}
	if n == 0 {
		return nil
	}
	vr.rounds = geo[:roundStride*n]
	for i := range ci {
		scale := kr * float64(i+1)
		ci[i] *= scale
		si[i] *= scale
		a, b := mo.units[i].sub.ANeg, mo.units[i].sub.BNeg
		fm := float64(i + 2)
		gR, gI := a*ci[i], -a*si[i]
		*vr.step(i) = hornerStep{gR, gI, fm * gR, fm * gI, b * ci[i], -b * si[i]}
	}
	vr.rp2 = rp * rp
	vr.rpInv2 = 1 / vr.rp2
	vr.rp2Guard = vr.rp2 * (1 + 1e-9)
	return vr
}

// StressAtByRound returns the summed interactive stress of the packed
// rounds at p, in MPa, evaluated one round at a time exactly as
// PairEval.StressAt does from the geometry NewPairEval derives, never
// from the aggregates: the pointwise reference path.
func (vr *VictimRounds) StressAtByRound(p geom.Point) tensor.Stress {
	vic := geom.Pt(vr.vicX, vr.vicY)
	var s tensor.Stress
	for g := vr.rounds; len(g) >= roundStride; g = g[roundStride:] {
		s = s.Add(vr.mo.roundStressAt(vic, geom.Pt(g[0], g[1]), g[2], g[3], g[4], p))
	}
	return s
}

// NumRounds returns the number of packed (non-degenerate) rounds.
func (vr *VictimRounds) NumRounds() int { return len(vr.rounds) / roundStride }

// Vic returns the shared victim center.
func (vr *VictimRounds) Vic() geom.Point { return geom.Pt(vr.vicX, vr.vicY) }

// interiorAt returns the summed interactive stress of all packed rounds
// at a point inside the victim footprint, given its offset (relX, relY)
// from the victim center and r = Hypot(relX, relY) < R′. Per harmonic
// the liner and body fields are scale_m(d)·P_m(ρ) with the pitch-
// independent profile P_m of Model.inner, so with θ = φ − ψ
//
//	Σ_r scale_m(d_r)·cos(mθ_r) = cos(mφ)·ci_m + sin(mφ)·si_m
//	Σ_r scale_m(d_r)·sin(mθ_r) = sin(mφ)·ci_m − cos(mφ)·si_m
//
// and one radial recurrence in ρ = r/R′ plus one rotation evaluates the
// whole round set. The region split (ρ ≥ k liner, else body) is the
// one PairPolar makes. At r = 0 any frame works: only the m = 2 body
// term ρ^0 survives, and it rotates consistently from φ = 0.
func (vr *VictimRounds) interiorAt(relX, relY, r float64) tensor.Stress {
	cphi, sphi := 1.0, 0.0
	if r > 0 {
		cphi, sphi = relX/r, relY/r
	}
	rho := r / vr.rPrime
	liner := rho >= vr.k
	// ρ^m and ρ^{m−2} from m = 2; the liner also carries ρ^{−m} and
	// ρ^{−m−2}, which stay zero in the body (no negative powers there,
	// and ρ may be 0).
	pp, pp2 := rho*rho, 1.0
	var inv, pn, pn2 float64
	if liner {
		inv = 1 / rho
		pn = inv * inv
		pn2 = pn * pn
	}
	cm := cphi*cphi - sphi*sphi
	sm := 2 * sphi * cphi
	var rr, tt, rt float64
	inner := vr.mo.inner
	for i := 0; i < vr.nm; i++ {
		c := &inner[i].core
		if liner {
			c = &inner[i].liner
		}
		fm := float64(i + 2)
		ap, an := c.APos*pp, c.ANeg*pn
		bp, bn := c.BPos*pp2, c.BNeg*pn2
		ac := cm*vr.ci[i] + sm*vr.si[i] // Σ_r scale cos(mθ_r)
		as := sm*vr.ci[i] - cm*vr.si[i] // Σ_r scale sin(mθ_r)
		rr += ((2-fm)*ap + (2+fm)*an - bp - bn) * ac
		tt += ((2+fm)*ap + (2-fm)*an + bp + bn) * ac
		rt += (fm*ap + fm*an + bp - bn) * as
		pp *= rho
		pp2 *= rho
		pn *= inv
		pn2 *= inv
		cm, sm = cm*cphi-sm*sphi, sm*cphi+cm*sphi
	}
	c2, s2, cs := cphi*cphi, sphi*sphi, cphi*sphi
	return tensor.Stress{
		XX: rr*c2 - 2*rt*cs + tt*s2,
		YY: rr*s2 + 2*rt*cs + tt*c2,
		XY: (rr-tt)*cs + rt*(c2-s2),
	}
}

// AccumulateTile adds this victim's interactive stress into the tile
// accumulator lanes for every point with squared distance ≤ pd2 from
// the victim center — the SoA form of the per-point polar sum (its
// scalar form, AccumulateAt, is the tests' oracle).
//
// It evaluates the same harmonic sum through a complex reformulation
// that needs no radial norm and exactly one division per contributing
// point. With z = relX + i·relY and w = R′·z/|z|² (so |w| = R′/r and
// arg w = φ), the aggregated series collapses to two complex
// polynomials in w, each evaluated by Horner over the step-major slab:
//
//	S(w) = Σ_i γ_i w^{i+2},                γ_i = ANeg_i·(ci_i − i·si_i)
//	U(w) = Σ_i ((i+2)·γ_i − inv2·β_i) w^{i+2},  β_i = BNeg_i·(ci_i − i·si_i)
//
// where inv2 = R′²/d² = |w|² is fixed per point, so U's coefficients
// fold on the fly inside one chain instead of running a third Horner
// chain for the β polynomial. Writing e^{2iφ} = z²/|z|² = w²·d²/R′²,
// the Cartesian accumulation is
//
//	V    = U·e^{2iφ} = (U·w²)·(d²/R′²)
//	σxx += 2·Re(S·w²) + Re V,  σyy += 2·Re(S·w²) − Re V,  σxy += Im V
//
// which matches the polar recurrence + rotation to round-off (the
// parity tests pin ≤1e-9 MPa; in isolation the two forms agree to
// ~1e-13). Every point evaluates the full MMax series, like the
// pointwise path: inside a dense placement's cutoff no harmonic is
// negligible.
//
// On amd64 hosts the bulk of the lanes runs eight points per
// instruction with AVX-512, or four with AVX2 and FMA (accumLanes); the
// portable Go kernel takes the n mod 4 tail, every guard-band point,
// and the whole sweep elsewhere.
//
// px, py, sxx, syy, sxy must have equal length. Points inside the
// victim footprint take interiorAt, as on the pointwise path (the
// classification reproduces its Hypot compare exactly via rp2Guard).
func (vr *VictimRounds) AccumulateTile(px, py, sxx, syy, sxy []float64, pd2 float64) {
	n := len(px)
	if len(py) != n || len(sxx) != n || len(syy) != n || len(sxy) != n {
		panic("interact: AccumulateTile lane length mismatch")
	}
	lo := vr.accumLanes(px, py[:n], sxx[:n], syy[:n], sxy[:n], pd2)
	vr.accumGo(px[lo:], py[lo:n], sxx[lo:n], syy[lo:n], sxy[lo:n], pd2, false)
}

// accumGo is the portable tile kernel behind AccumulateTile. With
// guardOnly it visits just the in-range points below rp2Guard: the
// ones the lane kernel leaves to the exact Hypot classification.
func (vr *VictimRounds) accumGo(px, py, sxx, syy, sxy []float64, pd2 float64, guardOnly bool) {
	n := len(px)
	py, sxx, syy, sxy = py[:n], sxx[:n], syy[:n], sxy[:n]
	vx, vy, rp := vr.vicX, vr.vicY, vr.rPrime
	kFull := vr.nm - 1
	// Estrin even/odd split: each chain is Horner in v = w² at half
	// length over the even and the odd coefficient indices.
	ke := kFull - (kFull & 1) // highest even index
	ko := kFull - 1 + (kFull & 1)
	for i := 0; i < n; i++ {
		dx := px[i] - vx
		dy := py[i] - vy
		d2 := dx*dx + dy*dy
		if d2 > pd2 || (guardOnly && d2 >= vr.rp2Guard) {
			continue
		}
		if d2 < vr.rp2Guard {
			// Guard band: settle interior vs exterior with the exact
			// scalar-path compare.
			if r := math.Hypot(dx, dy); r < rp {
				s := vr.interiorAt(dx, dy, r)
				sxx[i] += s.XX
				syy[i] += s.YY
				sxy[i] += s.XY
				continue
			}
		}
		d2inv := 1 / d2
		wx := rp * dx * d2inv
		wy := rp * dy * d2inv
		inv2 := vr.rp2 * d2inv
		w2R := wx*wx - wy*wy
		w2I := 2 * wx * wy
		c := vr.step(ke)
		sR, sI := c[0], c[1]
		uR := c[2] - inv2*c[4]
		uI := c[3] - inv2*c[5]
		for o := ke - 2; o >= 0; o -= 2 {
			c = vr.step(o)
			sR, sI = sR*w2R-sI*w2I+c[0], sR*w2I+sI*w2R+c[1]
			uR, uI = uR*w2R-uI*w2I+(c[2]-inv2*c[4]), uR*w2I+uI*w2R+(c[3]-inv2*c[5])
		}
		if ko >= 0 {
			c = vr.step(ko)
			sOR, sOI := c[0], c[1]
			uOR := c[2] - inv2*c[4]
			uOI := c[3] - inv2*c[5]
			for o := ko - 2; o >= 1; o -= 2 {
				c = vr.step(o)
				sOR, sOI = sOR*w2R-sOI*w2I+c[0], sOR*w2I+sOI*w2R+c[1]
				uOR, uOI = uOR*w2R-uOI*w2I+(c[2]-inv2*c[4]), uOR*w2I+uOI*w2R+(c[3]-inv2*c[5])
			}
			sR += wx*sOR - wy*sOI
			sI += wx*sOI + wy*sOR
			uR += wx*uOR - wy*uOI
			uI += wx*uOI + wy*uOR
		}
		// The chains computed Σ c_i w^i; the series shift to w^{i+2}
		// multiplies both by w², and V picks up a second w² from
		// e^{2iφ} = w²·d²/R′². Only the real part of S survives.
		w4R := w2R*w2R - w2I*w2I
		w4I := 2 * w2R * w2I
		q := d2 * vr.rpInv2
		iso := 2 * (sR*w2R - sI*w2I)
		vR := (uR*w4R - uI*w4I) * q
		vI := (uR*w4I + uI*w4R) * q
		sxx[i] += iso + vR
		syy[i] += iso - vR
		sxy[i] += vI
	}
}
