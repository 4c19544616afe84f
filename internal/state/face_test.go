package state

import (
	"math/rand"
	"testing"

	"rhsc/internal/eos"
)

// Thermo.Faces must reproduce the reference maps ToCons, Flux and
// WaveSpeeds bitwise, on the inline Γ-law arm and through the EOS
// interface, in every direction — taking the fallback value wherever the
// primary one is inadmissible.
func TestFacesMatchReference(t *testing.T) {
	const n = 500
	rng := rand.New(rand.NewSource(3))
	var q, fb [NComp][]float64
	for c := range q {
		q[c], fb[c] = make([]float64, n+1), make([]float64, n+1)
	}
	want := make([]Prim, n)
	for i := 0; i < n; i++ {
		p, b := randomPrim(rng), randomPrim(rng)
		want[i] = p
		switch i % 7 {
		case 3:
			p.P = -p.P
			want[i] = b
		case 5:
			p.Vx, p.Vy, p.Vz = 0.8, 0.8, 0
			want[i] = b
		}
		for c, v := range [NComp]float64{p.Rho, p.Vx, p.Vy, p.Vz, p.P} {
			q[c][i+1] = v
		}
		for c, v := range [NComp]float64{b.Rho, b.Vx, b.Vy, b.Vz, b.P} {
			fb[c][i] = v
		}
	}
	out := make([]Face, n)
	for _, e := range []eos.EOS{gamma53, eos.TaubMathews{}, eos.NewHybrid(100, 2, 5.0/3.0)} {
		th := NewThermo(e)
		for _, d := range []Direction{X, Y, Z} {
			th.Faces(out, &q, &fb, 1, 0, d)
			for i, f := range out {
				w := want[i]
				u := w.ToCons(e)
				lm, lp := WaveSpeeds(e, w, d)
				if f.U != u || f.F != Flux(w, u, d) || f.Lm != lm || f.Lp != lp ||
					f.P != w.P || f.V != w.V(d) {
					t.Fatalf("%s %v along %v: face %+v differs from the reference", e.Name(), w, d, f)
				}
			}
		}
		for _, w := range want {
			if got, ref := th.SoundSpeed2(w.Rho, w.P), e.SoundSpeed2(w.Rho, w.P); got != ref {
				t.Fatalf("%s %v: SoundSpeed2 %v, want %v", e.Name(), w, got, ref)
			}
		}
	}
}
