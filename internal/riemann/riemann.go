// Package riemann implements the approximate Riemann solvers that supply
// the numerical flux at cell faces: local Lax–Friedrichs (LLF/Rusanov),
// HLL (Harten–Lax–van Leer), and HLLC for SRHD following Mignone & Bodo
// (2005, MNRAS 364, 126), which restores the contact wave HLL averages
// away.
//
// Every solver consumes the derived face states (state.Face) on the two
// sides of each face of a row and writes the flux of the conserved
// variables through it. All solvers reduce to the exact flux when the
// two states agree (consistency), and upwind fully for supersonic flow.
package riemann

import (
	"fmt"
	"math"

	"rhsc/internal/state"
)

// Solver computes numerical fluxes from the face states on the two sides
// of a row of faces. Implementations must be stateless or otherwise safe
// for concurrent use.
//
// The interface is per row, not per face: a per-face interface call
// taking pointers to loop-local face states makes the compiler move both
// to the heap, one allocation each per face. The row call dispatches once
// and runs the concrete per-face Flux in a direct loop.
type Solver interface {
	// Name identifies the solver in output and benchmarks.
	Name() string
	// Fluxes writes the flux along d through face i, between the face
	// states L[i] and R[i], into fx[c][i] for every i < len(L).
	Fluxes(L, R []state.Face, d state.Direction, fx [state.NComp][]float64)
}

// store writes the flux f into column i of fx.
func store(fx *[state.NComp][]float64, i int, f state.Cons) {
	fx[state.ID][i] = f.D
	fx[state.ISx][i] = f.Sx
	fx[state.ISy][i] = f.Sy
	fx[state.ISz][i] = f.Sz
	fx[state.ITau][i] = f.Tau
}

// LLF is the local Lax–Friedrichs (Rusanov) solver: maximally dissipative
// single-wave flux F = ½(F_L + F_R − α(U_R − U_L)) with α the largest
// absolute signal speed of the two states.
type LLF struct{}

// Name implements Solver.
func (LLF) Name() string { return "llf" }

// Fluxes implements Solver.
func (s LLF) Fluxes(L, R []state.Face, d state.Direction, fx [state.NComp][]float64) {
	R = R[:len(L)]
	for i := range L {
		store(&fx, i, s.Flux(&L[i], &R[i]))
	}
}

// Flux returns the LLF flux between the face states l and r.
func (LLF) Flux(l, r *state.Face) state.Cons {
	alpha := math.Max(math.Max(math.Abs(l.Lm), math.Abs(l.Lp)),
		math.Max(math.Abs(r.Lm), math.Abs(r.Lp)))
	return state.Cons{
		D:   0.5 * (l.F.D + r.F.D - alpha*(r.U.D-l.U.D)),
		Sx:  0.5 * (l.F.Sx + r.F.Sx - alpha*(r.U.Sx-l.U.Sx)),
		Sy:  0.5 * (l.F.Sy + r.F.Sy - alpha*(r.U.Sy-l.U.Sy)),
		Sz:  0.5 * (l.F.Sz + r.F.Sz - alpha*(r.U.Sz-l.U.Sz)),
		Tau: 0.5 * (l.F.Tau + r.F.Tau - alpha*(r.U.Tau-l.U.Tau)),
	}
}

// HLL is the two-wave Harten–Lax–van Leer solver with the Davis outer
// speed estimates S_L = min(λ−(L), λ−(R)), S_R = max(λ+(L), λ+(R)).
type HLL struct{}

// Name implements Solver.
func (HLL) Name() string { return "hll" }

// Fluxes implements Solver.
func (s HLL) Fluxes(L, R []state.Face, d state.Direction, fx [state.NComp][]float64) {
	R = R[:len(L)]
	for i := range L {
		store(&fx, i, s.Flux(&L[i], &R[i]))
	}
}

// Flux returns the HLL flux between the face states l and r.
func (HLL) Flux(l, r *state.Face) state.Cons {
	sl := math.Min(l.Lm, r.Lm)
	sr := math.Max(l.Lp, r.Lp)
	switch {
	case sl >= 0:
		return l.F
	case sr <= 0:
		return r.F
	}
	inv := 1 / (sr - sl)
	hll := func(flc, frc, ulc, urc float64) float64 {
		return (sr*flc - sl*frc + sl*sr*(urc-ulc)) * inv
	}
	return state.Cons{
		D:   hll(l.F.D, r.F.D, l.U.D, r.U.D),
		Sx:  hll(l.F.Sx, r.F.Sx, l.U.Sx, r.U.Sx),
		Sy:  hll(l.F.Sy, r.F.Sy, l.U.Sy, r.U.Sy),
		Sz:  hll(l.F.Sz, r.F.Sz, l.U.Sz, r.U.Sz),
		Tau: hll(l.F.Tau, r.F.Tau, l.U.Tau, r.U.Tau),
	}
}

// HLLC is the three-wave solver of Mignone & Bodo (2005) for SRHD: the HLL
// fan is split by the contact wave moving at λ*, restoring exact contact
// and shear-wave resolution.
type HLLC struct{}

// Name implements Solver.
func (HLLC) Name() string { return "hllc" }

// Fluxes implements Solver.
func (s HLLC) Fluxes(L, R []state.Face, d state.Direction, fx [state.NComp][]float64) {
	R = R[:len(L)]
	for i := range L {
		store(&fx, i, s.Flux(&L[i], &R[i], d))
	}
}

// Flux returns the HLLC flux along d between the face states l and r.
func (HLLC) Flux(l, r *state.Face, d state.Direction) state.Cons {
	sl := math.Min(l.Lm, r.Lm)
	sr := math.Max(l.Lp, r.Lp)
	switch {
	case sl >= 0:
		return l.F
	case sr <= 0:
		return r.F
	}

	// HLL state and flux of the total energy E = τ + D and the normal
	// momentum m = S_d. F(E) = F(τ) + F(D) = S_d.
	inv := 1 / (sr - sl)
	hllU := func(ulc, urc, flc, frc float64) float64 {
		return (sr*urc - sl*ulc + flc - frc) * inv
	}
	hllF := func(flc, frc, ulc, urc float64) float64 {
		return (sr*flc - sl*frc + sl*sr*(urc-ulc)) * inv
	}
	eL := l.U.Tau + l.U.D
	eR := r.U.Tau + r.U.D
	mL, mR := l.U.S(d), r.U.S(d)
	fmL, fmR := l.F.S(d), r.F.S(d)
	feL := l.F.Tau + l.F.D
	feR := r.F.Tau + r.F.D
	eH := hllU(eL, eR, feL, feR)
	mH := hllU(mL, mR, fmL, fmR)
	feH := hllF(feL, feR, eL, eR)
	fmH := hllF(fmL, fmR, mL, mR)

	// Contact speed: F_E λ*² − (E + F_m) λ* + m = 0, taking the root that
	// lies inside the fan (minus branch, M&B eq. 18).
	a := feH
	b := -(eH + fmH)
	c := mH
	var lstar float64
	if math.Abs(a) > 1e-12*(math.Abs(b)+math.Abs(c)) {
		disc := b*b - 4*a*c
		if disc < 0 {
			disc = 0
		}
		// Numerically stable quadratic: q = −(b + sign(b)·sqrt(disc))/2.
		q := -0.5 * (b + math.Copysign(math.Sqrt(disc), b))
		lstar = c / q
	} else {
		lstar = -c / b
	}
	// Guard against roundoff pushing λ* outside the fan.
	if lstar < sl {
		lstar = sl
	}
	if lstar > sr {
		lstar = sr
	}

	// Star-region pressure (M&B eq. 17).
	pstar := -feH*lstar + fmH

	// Jump conditions across the outer wave S_K on the side K containing
	// the face (λ* >= 0 → left star state); the flux is
	// F_K + S_K (U*_K − U_K).
	k, sk := r, sr
	if lstar >= 0 {
		k, sk = l, sl
	}
	vk := k.V
	ek := k.U.Tau + k.U.D
	invK := 1 / (sk - lstar)
	dstar := k.U.D * (sk - vk) * invK
	estar := (ek*(sk-vk) + pstar*lstar - k.P*vk) * invK
	// Normal momentum: m* = (m(S_K − v) + p* − p)/(S_K − λ*).
	// Transverse momenta advect: S_t* = S_t (S_K − v)/(S_K − λ*).
	adv := (sk - vk) * invK
	sxs, sys, szs := k.U.Sx*adv, k.U.Sy*adv, k.U.Sz*adv
	mstar := (k.U.S(d)*(sk-vk) + pstar - k.P) * invK
	switch d {
	case state.X:
		sxs = mstar
	case state.Y:
		sys = mstar
	default:
		szs = mstar
	}
	taustar := estar - dstar
	return state.Cons{
		D:   k.F.D + sk*(dstar-k.U.D),
		Sx:  k.F.Sx + sk*(sxs-k.U.Sx),
		Sy:  k.F.Sy + sk*(sys-k.U.Sy),
		Sz:  k.F.Sz + sk*(szs-k.U.Sz),
		Tau: k.F.Tau + sk*(taustar-k.U.Tau),
	}
}

// ByName returns the solver registered under name: "llf", "hll", "hllc".
func ByName(name string) (Solver, error) {
	switch name {
	case "llf":
		return LLF{}, nil
	case "hll":
		return HLL{}, nil
	case "hllc":
		return HLLC{}, nil
	}
	return nil, fmt.Errorf("riemann: unknown solver %q", name)
}

// All returns every solver, for sweep-style benchmarks.
func All() []Solver { return []Solver{LLF{}, HLL{}, HLLC{}} }
