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
// round only differs by its axis angle ψ and its pitch-dependent
// coefficients a_m, b_m. Writing the local angle as θ = φ − ψ and
// expanding cos(mθ) and sin(mθ), the sum over rounds factorizes:
//
//	Σ_r a_m^r cos(mθ_r) = cos(mφ) Σ_r a_m^r cos(mψ_r) + sin(mφ) Σ_r a_m^r sin(mψ_r)
//
// so the four per-harmonic aggregates Σ a cos(mψ), Σ a sin(mψ),
// Σ b cos(mψ), Σ b sin(mψ) are point independent and computed once at
// pack time. A point then costs O(MMax) regardless of
// how many rounds the victim participates in — the structural speedup
// that makes dense full-chip Stage II tractable.
//
// Inside the victim (r < R′) the same identity holds with the incident
// coefficient scale_m(d) in place of a_m: the liner and body profiles
// are scale_m(d)·P_m(ρ) with P_m pitch independent (Model.inner), so
// the two further aggregates Σ scale_m cos(mψ) and Σ scale_m sin(mψ)
// make interior points O(MMax) as well (see interiorAt).
//
// A VictimRounds is immutable after Pack and safe for concurrent use.
type VictimRounds struct {
	vicX, vicY float64
	rPrime     float64
	k          float64 // R/R′: body/liner interface in scaled radius
	nm         int     // harmonics (MMax−1)
	rounds     int     // packed (non-degenerate) rounds
	// Aggregated coefficients, each of length nm (index m−2):
	// ca[i] = Σ_r a_i^r cos(mψ_r), sa[i] = Σ_r a_i^r sin(mψ_r),
	// cb/sb likewise for b, and ci/si likewise for the incident
	// coefficient scale_m(d_r). Backed by one slab.
	ca, sa, cb, sb, ci, si []float64
	inner                  []innerCoeffs // the Model's unit interior profiles

	// SoA complex-Horner state for AccumulateTile (see the derivation
	// there). horner is step-major, one hornerStep per harmonic index
	// i: [γRe, γIm, (i+2)·γRe, (i+2)·γIm, βRe, βIm] with
	// γ_i = ca[i] − i·sa[i] and β_i = cb[i] − i·sb[i], so one Horner
	// step streams a single 48-byte run and indexes with one bounds
	// check at most.
	horner []hornerStep
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

// PackRounds builds the aggregated view over rounds, which must all
// share one victim center (as the per-victim lists built by the
// analyzer do). Degenerate rounds (non-positive pitch) contribute zero
// and are dropped. Returns nil when no evaluable round remains.
func PackRounds(evs []PairEval) *VictimRounds {
	var vr *VictimRounds
	for r := range evs {
		pe := &evs[r]
		if pe.d <= 0 {
			continue
		}
		if vr == nil {
			mo := pe.model
			nm := len(pe.a)
			slab := make([]float64, 6*nm)
			vr = &VictimRounds{
				vicX:   pe.vic.X,
				vicY:   pe.vic.Y,
				rPrime: pe.rPrime,
				k:      mo.Struct.K(),
				nm:     nm,
				ca:     slab[0*nm : 1*nm],
				sa:     slab[1*nm : 2*nm],
				cb:     slab[2*nm : 3*nm],
				sb:     slab[3*nm : 4*nm],
				ci:     slab[4*nm : 5*nm],
				si:     slab[5*nm : 6*nm],
				inner:  mo.inner,
			}
		}
		vr.rounds++
		// Incident coefficient scale_m = −(K/R′²)·(m−1)·q^m with
		// q = 1/d̂ = R′/d (potential.IncidentCoeff), by recurrence in q.
		q := pe.rPrime / pe.d
		kr := -pe.model.Lame.K / (pe.rPrime * pe.rPrime)
		qm := q * q
		// cos/sin(mψ) recurrence over the round's axis angle ψ,
		// starting at m = 2.
		c1, s1 := pe.axX, pe.axY
		cm := c1*c1 - s1*s1
		sm := 2 * s1 * c1
		for i := 0; i < vr.nm; i++ {
			scale := kr * float64(i+1) * qm
			vr.ca[i] += pe.a[i] * cm
			vr.sa[i] += pe.a[i] * sm
			vr.cb[i] += pe.b[i] * cm
			vr.sb[i] += pe.b[i] * sm
			vr.ci[i] += scale * cm
			vr.si[i] += scale * sm
			qm *= q
			cm, sm = cm*c1-sm*s1, sm*c1+cm*s1
		}
	}
	if vr == nil {
		return nil
	}
	vr.packHorner()
	return vr
}

// packHorner folds the four aggregate lanes into the step-major complex
// coefficient slab AccumulateTile streams.
func (vr *VictimRounds) packHorner() {
	nm := vr.nm
	vr.horner = make([]hornerStep, nm)
	for i := 0; i < nm; i++ {
		fm := float64(i + 2)
		vr.horner[i] = hornerStep{
			vr.ca[i], -vr.sa[i],
			fm * vr.ca[i], -fm * vr.sa[i],
			vr.cb[i], -vr.sb[i],
		}
	}
	vr.rp2 = vr.rPrime * vr.rPrime
	vr.rpInv2 = 1 / vr.rp2
	vr.rp2Guard = vr.rp2 * (1 + 1e-9)
}

// NumRounds returns the number of packed (non-degenerate) rounds.
func (vr *VictimRounds) NumRounds() int { return vr.rounds }

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
	for i := 0; i < vr.nm; i++ {
		c := &vr.inner[i].core
		if liner {
			c = &vr.inner[i].liner
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
//	S(w) = Σ_i γ_i w^{i+2},                γ_i = ca_i − i·sa_i
//	U(w) = Σ_i ((i+2)·γ_i − inv2·β_i) w^{i+2},  β_i = cb_i − i·sb_i
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
	h := vr.horner
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
		c := &h[ke]
		sR, sI := c[0], c[1]
		uR := c[2] - inv2*c[4]
		uI := c[3] - inv2*c[5]
		for o := ke - 2; o >= 0; o -= 2 {
			c = &h[o]
			sR, sI = sR*w2R-sI*w2I+c[0], sR*w2I+sI*w2R+c[1]
			uR, uI = uR*w2R-uI*w2I+(c[2]-inv2*c[4]), uR*w2I+uI*w2R+(c[3]-inv2*c[5])
		}
		if ko >= 0 {
			c = &h[ko]
			sOR, sOI := c[0], c[1]
			uOR := c[2] - inv2*c[4]
			uOI := c[3] - inv2*c[5]
			for o := ko - 2; o >= 1; o -= 2 {
				c = &h[o]
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
