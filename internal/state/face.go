package state

import (
	"math"

	"rhsc/internal/eos"
)

// Face is the derived state of one reconstructed face value along a
// sweep direction: everything an approximate Riemann solver reads,
// computed once per face side by Thermo.Faces instead of once per use.
type Face struct {
	U      Cons    // conserved variables
	F      Cons    // flux along the sweep direction
	P      float64 // pressure
	V      float64 // velocity along the sweep direction
	Lm, Lp float64 // characteristic speeds λ−, λ+
}

// Thermo is an equation of state resolved once for the face evaluator: a
// Γ-law gas keeps only Γ and evaluates h and c_s² inline, any other
// closure goes through its interface. Resolving the closure here, not per
// face, keeps interface calls off the Γ-law hot path.
type Thermo struct {
	e     eos.EOS
	gamma float64 // adiabatic index of an eos.IdealGas; 0 otherwise
}

// NewThermo resolves e.
func NewThermo(e eos.EOS) Thermo {
	t := Thermo{e: e}
	if g, ok := e.(eos.IdealGas); ok {
		t.gamma = g.GammaAd
	}
	return t
}

// SoundSpeed2 returns c_s²(ρ, p), bitwise equal to the EOS's own.
func (t Thermo) SoundSpeed2(rho, p float64) float64 {
	if g := t.gamma; g > 0 {
		h := 1 + g/(g-1)*p/rho
		return g * p / (rho * h)
	}
	return t.e.SoundSpeed2(rho, p)
}

// Faces fills out[i] with the face state along d of the primitive values
// q[·][qo+i] or, where those are inadmissible (possible after high-order
// reconstruction near strong shocks and vacuum), of the first-order cell
// values fb[·][fo+i]. The arithmetic is, operation for operation, that of
// Prim.ToCons, Flux and WaveSpeeds, so every value is bitwise what those
// return; the Γ-law arm mirrors eos.IdealGas.Enthalpy and SoundSpeed2.
// The fallback values are used unchecked.
func (t Thermo) Faces(out []Face, q, fb *[NComp][]float64, qo, fo int, d Direction) {
	n := len(out)
	qr, qx, qy, qz, qp := q[IRho][qo:qo+n], q[IVx][qo:qo+n], q[IVy][qo:qo+n], q[IVz][qo:qo+n], q[IP][qo:qo+n]
	br, bx, by, bz, bp := fb[IRho][fo:fo+n], fb[IVx][fo:fo+n], fb[IVy][fo:fo+n], fb[IVz][fo:fo+n], fb[IP][fo:fo+n]
	g := t.gamma
	for i := range out {
		rho, vx, vy, vz, p := qr[i], qx[i], qy[i], qz[i], qp[i]
		if !physical(rho, vx, vy, vz, p) {
			rho, vx, vy, vz, p = br[i], bx[i], by[i], bz[i], bp[i]
		}
		var h, cs2 float64
		if g > 0 {
			h = 1 + g/(g-1)*p/rho
			cs2 = g * p / (rho * h)
		} else {
			h, cs2 = t.e.Enthalpy(rho, p), t.e.SoundSpeed2(rho, p)
		}
		out[i].set(rho, vx, vy, vz, p, h, cs2, d)
	}
}

// set fills f from a primitive state whose h and c_s² are known. It works on scalars and
// writes f field by field: a 5-field struct value (Prim, Cons) does not
// live in registers, and copying through one doubles the cost.
func (f *Face) set(rho, vx, vy, vz, p, h, cs2 float64, d Direction) {
	v2 := vx*vx + vy*vy + vz*vz
	w := 1 / math.Sqrt(1-v2)
	rhw2 := rho * h * w * w
	dd := rho * w
	sx, sy, sz := rhw2*vx, rhw2*vy, rhw2*vz
	f.U.D, f.U.Sx, f.U.Sy, f.U.Sz, f.U.Tau = dd, sx, sy, sz, rhw2-p-dd
	var vd, sd float64
	switch d {
	case X:
		vd, sd = vx, sx
	case Y:
		vd, sd = vy, sy
	default:
		vd, sd = vz, sz
	}
	fsx, fsy, fsz := sx*vd, sy*vd, sz*vd
	switch d {
	case X:
		fsx += p
	case Y:
		fsy += p
	default:
		fsz += p
	}
	f.F.D, f.F.Sx, f.F.Sy, f.F.Sz, f.F.Tau = dd*vd, fsx, fsy, fsz, sd-dd*vd
	f.P, f.V = p, vd
	f.Lm, f.Lp = CharSpeeds(vd, v2, cs2, math.Sqrt(cs2))
}

// CharSpeeds returns the characteristic speeds (λ−, λ+) of a state with
// velocity vd along the direction, v² = v2 and squared sound speed cs2
// (sqrtCs2 = √cs2, hoisted by callers that reuse it across directions).
// See WaveSpeeds for the formula.
func CharSpeeds(vd, v2, cs2, sqrtCs2 float64) (lm, lp float64) {
	den := 1 - v2*cs2
	disc := (1 - v2) * (1 - v2*cs2 - vd*vd*(1-cs2))
	if disc < 0 {
		disc = 0
	}
	root := math.Sqrt(disc) * sqrtCs2
	return (vd*(1-cs2) - root) / den, (vd*(1-cs2) + root) / den
}
