package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"rhsc/internal/eos"
	"rhsc/internal/recon"
	"rhsc/internal/riemann"
	"rhsc/internal/state"
	"rhsc/internal/testprob"
)

// fingerprint returns the FNV-1a hash of the bit patterns of every value
// (ghosts included) of the given fields, in order.
func fingerprint(fs ...*state.Fields) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, f := range fs {
		for _, v := range f.Raw() {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// goldenFingerprints pins the conserved and primitive fields after a few
// steps of every reconstruction × Riemann solver × EOS combination, on a
// 2-D and a 1-D problem, with the fail-safe pipeline off and on. The
// fail-safe arm spikes one cell's energy during the second step so the
// local repair (and with it the first-order PCM+HLL row) runs. Any change
// to the flux arithmetic — reordering, refactoring into a different
// kernel shape — must leave every value bitwise unchanged. The constants
// hold on amd64, where the Go compiler never fuses a multiply and an add;
// on arm64, ppc64 and s390x it does, and the low bits differ.
var goldenFingerprints = map[string]uint64{
	"blast2d/ideal-gamma-1.67/pcm/llf":                  0x97faeed4282d09ed,
	"blast2d/ideal-gamma-1.67/pcm/llf/failsafe":         0xaf357718d00f3623,
	"blast2d/ideal-gamma-1.67/pcm/hll":                  0xfa1e71f8d4d46fa5,
	"blast2d/ideal-gamma-1.67/pcm/hll/failsafe":         0xfa1e71f8d4d46fa5,
	"blast2d/ideal-gamma-1.67/pcm/hllc":                 0x20f0bf8f592964dd,
	"blast2d/ideal-gamma-1.67/pcm/hllc/failsafe":        0x760a12486b62235a,
	"blast2d/ideal-gamma-1.67/plm-minmod/llf":           0xf04ef05afd851c7d,
	"blast2d/ideal-gamma-1.67/plm-minmod/llf/failsafe":  0x8ca962e1fcac37ba,
	"blast2d/ideal-gamma-1.67/plm-minmod/hll":           0x25d8fc69377d57cd,
	"blast2d/ideal-gamma-1.67/plm-minmod/hll/failsafe":  0xa6425633bee1fa58,
	"blast2d/ideal-gamma-1.67/plm-minmod/hllc":          0xb2b60d4bd1e3c2a7,
	"blast2d/ideal-gamma-1.67/plm-minmod/hllc/failsafe": 0x3b9b317af5d40afa,
	"blast2d/ideal-gamma-1.67/plm-mc/llf":               0x145488bfa617e95d,
	"blast2d/ideal-gamma-1.67/plm-mc/llf/failsafe":      0x2c88b8bcb1ecfd45,
	"blast2d/ideal-gamma-1.67/plm-mc/hll":               0xa340027dc9ba50c5,
	"blast2d/ideal-gamma-1.67/plm-mc/hll/failsafe":      0x7295a0b8408de95a,
	"blast2d/ideal-gamma-1.67/plm-mc/hllc":              0x31b3bbcaf07f0649,
	"blast2d/ideal-gamma-1.67/plm-mc/hllc/failsafe":     0xe001122f5bdefb0b,
	"blast2d/ideal-gamma-1.67/ppm/llf":                  0x6445bc5a91de4765,
	"blast2d/ideal-gamma-1.67/ppm/llf/failsafe":         0xb69592b1d27b90f2,
	"blast2d/ideal-gamma-1.67/ppm/hll":                  0x2f3b0713ec3ac2c5,
	"blast2d/ideal-gamma-1.67/ppm/hll/failsafe":         0x36b9b70a3ef3a8b9,
	"blast2d/ideal-gamma-1.67/ppm/hllc":                 0x1a085a6dfb9e3a74,
	"blast2d/ideal-gamma-1.67/ppm/hllc/failsafe":        0x3de4786480733dc0,
	"blast2d/ideal-gamma-1.67/weno5/llf":                0x4d69e98dd2d8f52d,
	"blast2d/ideal-gamma-1.67/weno5/llf/failsafe":       0xd6292e0678d395c9,
	"blast2d/ideal-gamma-1.67/weno5/hll":                0x5f40fd9ddfd3c425,
	"blast2d/ideal-gamma-1.67/weno5/hll/failsafe":       0x65d8b5ff5b78f706,
	"blast2d/ideal-gamma-1.67/weno5/hllc":               0xe613d535bea09654,
	"blast2d/ideal-gamma-1.67/weno5/hllc/failsafe":      0x458f4b936f649a89,
	"blast2d/taub-mathews/pcm/llf":                      0x862b700e25697d65,
	"blast2d/taub-mathews/pcm/llf/failsafe":             0xa8a8b15dc75d15d5,
	"blast2d/taub-mathews/pcm/hll":                      0xb0f178cba5247315,
	"blast2d/taub-mathews/pcm/hll/failsafe":             0xb0f178cba5247315,
	"blast2d/taub-mathews/pcm/hllc":                     0x91f0d57a52f64b0a,
	"blast2d/taub-mathews/pcm/hllc/failsafe":            0x5942d51d321200c1,
	"blast2d/taub-mathews/plm-minmod/llf":               0x8ecb19867d3d89b5,
	"blast2d/taub-mathews/plm-minmod/llf/failsafe":      0x87cf599ce3a71584,
	"blast2d/taub-mathews/plm-minmod/hll":               0x0f760ef49d493f15,
	"blast2d/taub-mathews/plm-minmod/hll/failsafe":      0x5d40db4a08277c1e,
	"blast2d/taub-mathews/plm-minmod/hllc":              0xaff6d7cfb9ddfd87,
	"blast2d/taub-mathews/plm-minmod/hllc/failsafe":     0x19b157eab307a08a,
	"blast2d/taub-mathews/plm-mc/llf":                   0xb4e50ffe55e34b1d,
	"blast2d/taub-mathews/plm-mc/llf/failsafe":          0xb00a5b8c39b7aa91,
	"blast2d/taub-mathews/plm-mc/hll":                   0x3b77623389ff876d,
	"blast2d/taub-mathews/plm-mc/hll/failsafe":          0xb811bc445c6d2e9f,
	"blast2d/taub-mathews/plm-mc/hllc":                  0x31995a107436f4fa,
	"blast2d/taub-mathews/plm-mc/hllc/failsafe":         0x787d769198c9d507,
	"blast2d/taub-mathews/ppm/llf":                      0x1b6ecc96545f85fd,
	"blast2d/taub-mathews/ppm/llf/failsafe":             0xfccb39233ada57c2,
	"blast2d/taub-mathews/ppm/hll":                      0x28d5cc36f65ef965,
	"blast2d/taub-mathews/ppm/hll/failsafe":             0xf4f39ae266a09295,
	"blast2d/taub-mathews/ppm/hllc":                     0xc5cfab0725dbdbee,
	"blast2d/taub-mathews/ppm/hllc/failsafe":            0x69ee22f924757d13,
	"blast2d/taub-mathews/weno5/llf":                    0xc1e3c013f758e58d,
	"blast2d/taub-mathews/weno5/llf/failsafe":           0x36fe5d5e71e01165,
	"blast2d/taub-mathews/weno5/hll":                    0xde3d26821befcd35,
	"blast2d/taub-mathews/weno5/hll/failsafe":           0xd8d4a2fa4c84a0fa,
	"blast2d/taub-mathews/weno5/hllc":                   0xe7938ef6b1616cfd,
	"blast2d/taub-mathews/weno5/hllc/failsafe":          0x6f7fb376bfce9d45,
	"sod/ideal-gamma-1.67/pcm/llf":                      0x7fa8801225c28de2,
	"sod/ideal-gamma-1.67/pcm/llf/failsafe":             0x995fd373ec5fc046,
	"sod/ideal-gamma-1.67/pcm/hll":                      0xa36ebcc0bfb9123f,
	"sod/ideal-gamma-1.67/pcm/hll/failsafe":             0xa36ebcc0bfb9123f,
	"sod/ideal-gamma-1.67/pcm/hllc":                     0x93c11e39bca6144b,
	"sod/ideal-gamma-1.67/pcm/hllc/failsafe":            0x232ffa2a513f5c75,
	"sod/ideal-gamma-1.67/plm-minmod/llf":               0xb2daa374f1065005,
	"sod/ideal-gamma-1.67/plm-minmod/llf/failsafe":      0xa3edc6ab43e8e316,
	"sod/ideal-gamma-1.67/plm-minmod/hll":               0x6676ff489ecb0290,
	"sod/ideal-gamma-1.67/plm-minmod/hll/failsafe":      0x7e1089dfedfcc215,
	"sod/ideal-gamma-1.67/plm-minmod/hllc":              0x34504b8475fab37a,
	"sod/ideal-gamma-1.67/plm-minmod/hllc/failsafe":     0x2c03b9bf3310bc91,
	"sod/ideal-gamma-1.67/plm-mc/llf":                   0x400eed0dece3cca8,
	"sod/ideal-gamma-1.67/plm-mc/llf/failsafe":          0xb796aac44416f273,
	"sod/ideal-gamma-1.67/plm-mc/hll":                   0x20b8e4597d9cf27c,
	"sod/ideal-gamma-1.67/plm-mc/hll/failsafe":          0x6c652eb7243e80cc,
	"sod/ideal-gamma-1.67/plm-mc/hllc":                  0x0fa5ecc02861f5c6,
	"sod/ideal-gamma-1.67/plm-mc/hllc/failsafe":         0x272492d5b5da54d0,
	"sod/ideal-gamma-1.67/ppm/llf":                      0xaad8f0dd861a09cb,
	"sod/ideal-gamma-1.67/ppm/llf/failsafe":             0xe3064555e02ad86d,
	"sod/ideal-gamma-1.67/ppm/hll":                      0x3985402900d01e01,
	"sod/ideal-gamma-1.67/ppm/hll/failsafe":             0xa8723f2ba5a74f97,
	"sod/ideal-gamma-1.67/ppm/hllc":                     0x90a11e5ca5f07f2b,
	"sod/ideal-gamma-1.67/ppm/hllc/failsafe":            0x2f4b4a9e45cfa9e9,
	"sod/ideal-gamma-1.67/weno5/llf":                    0xeb0c49dd81c9449e,
	"sod/ideal-gamma-1.67/weno5/llf/failsafe":           0xf71edbac6e5cd6d5,
	"sod/ideal-gamma-1.67/weno5/hll":                    0xa598c7e3594983dc,
	"sod/ideal-gamma-1.67/weno5/hll/failsafe":           0xcf5f1beead724c46,
	"sod/ideal-gamma-1.67/weno5/hllc":                   0xacf84762cdaf7f16,
	"sod/ideal-gamma-1.67/weno5/hllc/failsafe":          0x6bb8d7af8f7ee995,
	"sod/taub-mathews/pcm/llf":                          0xa70f12d1b5a8f005,
	"sod/taub-mathews/pcm/llf/failsafe":                 0xc0581c4324c8900d,
	"sod/taub-mathews/pcm/hll":                          0x3cb403bcb4d6e997,
	"sod/taub-mathews/pcm/hll/failsafe":                 0x3cb403bcb4d6e997,
	"sod/taub-mathews/pcm/hllc":                         0xc4bfb3b75916754b,
	"sod/taub-mathews/pcm/hllc/failsafe":                0xa427c042bf9377ed,
	"sod/taub-mathews/plm-minmod/llf":                   0x8f9c22c8109d4f3b,
	"sod/taub-mathews/plm-minmod/llf/failsafe":          0xd9543b9d23a3d9cb,
	"sod/taub-mathews/plm-minmod/hll":                   0xe1bea8b556a75f04,
	"sod/taub-mathews/plm-minmod/hll/failsafe":          0xded01751aa27915d,
	"sod/taub-mathews/plm-minmod/hllc":                  0xe166128dcef03f08,
	"sod/taub-mathews/plm-minmod/hllc/failsafe":         0xab25af9244c54ec0,
	"sod/taub-mathews/plm-mc/llf":                       0x88b12b1bb7bafdb1,
	"sod/taub-mathews/plm-mc/llf/failsafe":              0x13310c54b9aeb8b3,
	"sod/taub-mathews/plm-mc/hll":                       0x5f7b1e1800535f89,
	"sod/taub-mathews/plm-mc/hll/failsafe":              0x2a75b1c700b23dcd,
	"sod/taub-mathews/plm-mc/hllc":                      0xe4be20e0dd462d95,
	"sod/taub-mathews/plm-mc/hllc/failsafe":             0x35c3dc18025d1fd1,
	"sod/taub-mathews/ppm/llf":                          0x3be7d53384c2e0b5,
	"sod/taub-mathews/ppm/llf/failsafe":                 0x974efb0b2f586dfa,
	"sod/taub-mathews/ppm/hll":                          0x1b74bde1fe361451,
	"sod/taub-mathews/ppm/hll/failsafe":                 0x8e9f922f100f3a29,
	"sod/taub-mathews/ppm/hllc":                         0x84674e6a13c8c45e,
	"sod/taub-mathews/ppm/hllc/failsafe":                0x3fa78497a7f71dd5,
	"sod/taub-mathews/weno5/llf":                        0xcfe60fdd0984fa56,
	"sod/taub-mathews/weno5/llf/failsafe":               0x16b17231e51c50b7,
	"sod/taub-mathews/weno5/hll":                        0x655a8fd65150cd47,
	"sod/taub-mathews/weno5/hll/failsafe":               0x4c1dba188a4ee1bf,
	"sod/taub-mathews/weno5/hllc":                       0x58d756544a0a9cea,
	"sod/taub-mathews/weno5/hllc/failsafe":              0xe1235836b5e8a11e,
}

func TestGoldenBitwise(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("fingerprints are recorded for amd64, not %s", runtime.GOARCH)
	}
	recons := []recon.Scheme{
		recon.PCM{},
		recon.PLM{Lim: recon.Minmod},
		recon.PLM{Lim: recon.MonotonizedCentral},
		recon.PPM{},
		recon.WENO5{},
	}
	eoses := []eos.EOS{eos.NewIdealGas(5.0 / 3.0), eos.TaubMathews{}}
	probs := []struct {
		p *testprob.Problem
		n int
	}{{testprob.Blast2D, 24}, {testprob.Sod, 64}}
	for _, pr := range probs {
		for _, e := range eoses {
			for _, rc := range recons {
				for _, rs := range riemann.All() {
					for _, fs := range []bool{false, true} {
						name := pr.p.Name + "/" + e.Name() + "/" + rc.Name() + "/" + rs.Name()
						if fs {
							name += "/failsafe"
						}
						t.Run(name, func(t *testing.T) {
							cfg := DefaultConfig()
							cfg.EOS, cfg.Recon, cfg.Riemann, cfg.FailSafe = e, rc, rs, fs
							g := pr.p.NewGrid(pr.n, rc.Ghost())
							if fs {
								centre := g.Idx((g.IBeg()+g.IEnd())/2, (g.JBeg()+g.JEnd())/2, 0)
								calls := 0
								cfg.FaultHook = func(stage int, u *state.Fields) {
									calls++
									if calls == cfg.Integrator.Stages()+1 {
										u.Comp[state.ITau][centre] *= 1e6
									}
								}
							}
							s, err := New(g, cfg)
							if err != nil {
								t.Fatal(err)
							}
							if err := s.InitFromPrim(pr.p.Init); err != nil {
								t.Fatal(err)
							}
							for i := 0; i < 4; i++ {
								if err := s.Step(s.MaxDt()); err != nil {
									t.Fatalf("step %d: %v", i, err)
								}
							}
							if fs && s.St.Repaired.Load() == 0 {
								t.Fatal("fail-safe arm repaired nothing")
							}
							got := fingerprint(g.U, g.W)
							if want, ok := goldenFingerprints[name]; !ok || got != want {
								t.Errorf("fingerprint %#016x, want %#016x", got, want)
							}
						})
					}
				}
			}
		}
	}
}

// The solver once had specialised ("fused") kernels for PLM-MC+HLLC and
// PCM+HLL beside a generic per-value path. Both paths produced the
// fingerprints below, bitwise; the face-state row that replaced them must
// keep doing so. runFingerprint advances p on an n-cell grid with cfg and
// returns the fingerprint of U and W.
func runFingerprint(t *testing.T, p *testprob.Problem, n int, cfg Config, advance func(*Solver) error) uint64 {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("fingerprints are recorded for amd64, not %s", runtime.GOARCH)
	}
	g := p.NewGrid(n, cfg.Recon.Ghost())
	s, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InitFromPrim(p.Init); err != nil {
		t.Fatal(err)
	}
	if err := advance(s); err != nil {
		t.Fatal(err)
	}
	return fingerprint(g.U, g.W)
}

func steps(n int) func(*Solver) error {
	return func(s *Solver) error {
		for i := 0; i < n; i++ {
			if err := s.Step(s.MaxDt()); err != nil {
				return err
			}
		}
		return nil
	}
}

// PLM-MC+HLLC (the default) on a demanding 2-D run.
func TestFusedBitwiseIdentical(t *testing.T) {
	const want = 0xe9137a79ce30753b
	if got := runFingerprint(t, testprob.Blast2D, 48, DefaultConfig(), steps(6)); got != want {
		t.Errorf("fingerprint %#016x, want %#016x", got, uint64(want))
	}
}

// The same on a 1-D blast wave, including the atmosphere-adjacent face
// fallback.
func TestFusedBitwiseIdentical1D(t *testing.T) {
	const want = 0x2c366181cfc1d582
	got := runFingerprint(t, testprob.Blast, 200, DefaultConfig(), func(s *Solver) error {
		_, err := s.Advance(0.2)
		return err
	})
	if got != want {
		t.Errorf("fingerprint %#016x, want %#016x", got, uint64(want))
	}
}

// PCM+HLL, the first-order scheme the fail-safe repair falls back to.
func TestFusedPCMHLLBitwise(t *testing.T) {
	const want = 0xa770a98b79de0ce5
	cfg := DefaultConfig()
	cfg.Recon = recon.PCM{}
	cfg.Riemann = riemann.HLL{}
	if got := runFingerprint(t, testprob.Blast2D, 48, cfg, steps(8)); got != want {
		t.Errorf("fingerprint %#016x, want %#016x", got, uint64(want))
	}
}
