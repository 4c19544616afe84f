package core

import (
	"testing"

	"rhsc/internal/grid"
	"rhsc/internal/par"
	"rhsc/internal/recon"
	"rhsc/internal/riemann"
	"rhsc/internal/state"
)

// blast3DGrid builds a small 3-D grid with an off-centre blast so that no
// direction or octant is symmetric — any sweep-order or ownership bug
// shows up as a bitwise difference.
func blast3DGrid(nx, ny, nz int) *grid.Grid {
	g := grid.New(grid.Geometry{Nx: nx, Ny: ny, Nz: nz, Ng: 2,
		X0: 0, X1: 1, Y0: 0, Y1: 1, Z0: 0, Z1: 1})
	g.SetAllBCs(grid.Outflow)
	return g
}

func blast3DInit(x, y, z float64) state.Prim {
	dx, dy, dz := x-0.4, y-0.55, z-0.45
	if dx*dx+dy*dy+dz*dz < 0.03 {
		return state.Prim{Rho: 1, P: 50}
	}
	return state.Prim{Rho: 1, P: 0.1}
}

// runTiled advances a fixed blast problem for a few steps under the given
// config mutations and returns the full conserved state (all components,
// ghosts included) for bitwise comparison.
func runTiled(t *testing.T, mut func(*Config)) []float64 {
	t.Helper()
	g := blast3DGrid(12, 10, 8)
	cfg := DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InitFromPrim(blast3DInit); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		if err := s.Step(s.MaxDt()); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]float64, 0, state.NComp*g.NCells())
	for c := 0; c < state.NComp; c++ {
		out = append(out, g.U.Comp[c]...)
	}
	return out
}

func requireBitwiseEqual(t *testing.T, name string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d vs %d", name, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: element %d differs: %v vs %v", name, i, want[i], got[i])
		}
	}
}

// Every interior (j, k) pencil must be owned by exactly one tile, for any
// tile size — including sizes that don't divide the grid and sizes larger
// than the grid — and for 1-D, 2-D and 3-D shapes.
func TestTileDecompositionCovers(t *testing.T) {
	shapes := []struct {
		name       string
		nx, ny, nz int
	}{
		{"1d", 16, 1, 1},
		{"2d", 16, 12, 1},
		{"3d", 12, 10, 6},
	}
	sizes := []int{1, 3, 5, 8, 64}
	for _, sh := range shapes {
		for _, tj := range sizes {
			for _, tk := range sizes {
				g := blast3DGrid(sh.nx, sh.ny, sh.nz)
				cfg := DefaultConfig()
				cfg.TileJ, cfg.TileK = tj, tk
				s, err := New(g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				owners := make(map[[2]int]int)
				for _, tl := range s.tiles {
					if tl.j1 <= tl.j0 || tl.k1 <= tl.k0 {
						t.Fatalf("%s tj=%d tk=%d: empty tile %+v", sh.name, tj, tk, tl)
					}
					for k := tl.k0; k < tl.k1; k++ {
						for j := tl.j0; j < tl.j1; j++ {
							owners[[2]int{j, k}]++
						}
					}
				}
				for k := g.KBeg(); k < g.KEnd(); k++ {
					for j := g.JBeg(); j < g.JEnd(); j++ {
						if n := owners[[2]int{j, k}]; n != 1 {
							t.Fatalf("%s tj=%d tk=%d: pencil (%d,%d) owned by %d tiles",
								sh.name, tj, tk, j, k, n)
						}
					}
				}
				ny, nz := g.JEnd()-g.JBeg(), g.KEnd()-g.KBeg()
				if want := len(owners); want != ny*nz {
					t.Fatalf("%s tj=%d tk=%d: %d owned pencils, want %d",
						sh.name, tj, tk, want, ny*nz)
				}
			}
		}
	}
}

// The tile engine must be bitwise identical to the legacy per-direction
// strip traversal, for any worker count and any tile size (dividing or
// not). This is the contract that lets tiling be the silent default. The
// arms keep the names of the two flux paths the solver once had: both now
// run the one face-state row, so "fused" covers PCM+HLL, the other
// configuration that had a specialised kernel.
func TestTiledBitwiseInvariance(t *testing.T) {
	arms := []struct {
		name string
		mut  func(*Config)
	}{
		{"generic", func(*Config) {}},
		{"fused", func(c *Config) { c.Recon, c.Riemann = recon.PCM{}, riemann.HLL{} }},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			baseline := runTiled(t, func(c *Config) {
				arm.mut(c)
				c.NoTiling = true
			})
			cases := []struct {
				label   string
				workers int // 0 = no pool
				tj, tk  int
			}{
				{"default-serial", 0, 0, 0},
				{"tiny-tiles-par8", 8, 1, 1},
				{"odd-tiles-par2", 2, 3, 5},
				{"odd-tiles-par1", 1, 5, 3},
				{"oversize-tiles", 0, 64, 64},
				{"default-par2", 2, 0, 0},
			}
			for _, tc := range cases {
				got := runTiled(t, func(c *Config) {
					arm.mut(c)
					c.TileJ, c.TileK = tc.tj, tc.tk
					if tc.workers > 0 {
						c.Pool = par.NewPool(tc.workers)
					}
				})
				requireBitwiseEqual(t, tc.label, baseline, got)
			}
		})
	}
}

// A custom TileExec is handed the complete tile schedule and must be able
// to chunk it arbitrarily: every tile index in [0, nTiles) is run exactly
// once and the result stays bitwise identical.
func TestTileExecCoverage(t *testing.T) {
	baseline := runTiled(t, nil)
	var runs [][2]int
	nTilesSeen := -1
	got := runTiled(t, func(c *Config) {
		c.TileExec = func(nTiles int, run func(lo, hi int)) {
			nTilesSeen = nTiles
			for lo := 0; lo < nTiles; lo += 3 {
				hi := lo + 3
				if hi > nTiles {
					hi = nTiles
				}
				runs = append(runs, [2]int{lo, hi})
				run(lo, hi)
			}
		}
	})
	if nTilesSeen <= 0 {
		t.Fatalf("TileExec never invoked (nTiles = %d)", nTilesSeen)
	}
	seen := make([]int, nTilesSeen)
	for _, r := range runs {
		for i := r[0]; i < r[1]; i++ {
			seen[i]++
		}
	}
	// The exec ran many stages; every stage must cover each tile the same
	// number of times (once per ComputeRHS call).
	for i, n := range seen {
		if n == 0 || n != seen[0] {
			t.Fatalf("tile %d run %d times, tile 0 run %d times", i, n, seen[0])
		}
	}
	requireBitwiseEqual(t, "tile-exec", baseline, got)
}

// A custom SweepExec (the device-dispatch hook) selects the legacy strip
// traversal; chunked arbitrarily it must cover every strip of every
// direction exactly once per pass and match the tiled default bitwise.
func TestSweepExecMatchesTiled(t *testing.T) {
	baseline := runTiled(t, nil)
	perDir := map[state.Direction][]int{}
	got := runTiled(t, func(c *Config) {
		c.SweepExec = func(d state.Direction, nStrips int, sweep func(lo, hi int)) {
			seen := make([]bool, nStrips)
			for lo := 0; lo < nStrips; lo += 5 {
				hi := lo + 5
				if hi > nStrips {
					hi = nStrips
				}
				sweep(lo, hi)
				for r := lo; r < hi; r++ {
					if seen[r] {
						t.Errorf("dir %v strip %d swept twice in one pass", d, r)
					}
					seen[r] = true
				}
			}
			for r, ok := range seen {
				if !ok {
					t.Errorf("dir %v strip %d never swept", d, r)
				}
			}
			perDir[d] = append(perDir[d], nStrips)
		}
	})
	if len(perDir) != 3 {
		t.Fatalf("SweepExec saw %d directions, want 3", len(perDir))
	}
	requireBitwiseEqual(t, "sweep-exec", baseline, got)
}

// Fail-safe repair recomputes fluxes through the same tile kernels: an
// injected fault must be detected and repaired to a state bitwise
// identical to the legacy strip path's repair.
func TestFailSafeTiledMatchesLegacy(t *testing.T) {
	run := func(noTiling bool) ([]float64, int64, int64) {
		g := blast3DGrid(12, 10, 8)
		cfg := DefaultConfig()
		cfg.FailSafe = true
		cfg.NoTiling = noTiling
		s, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.InitFromPrim(blast3DInit); err != nil {
			t.Fatal(err)
		}
		s.RecoverPrimitives()
		step := 0
		idx := g.Idx(g.TotalX/2, g.TotalY/2, g.TotalZ/2)
		s.Cfg.FaultHook = func(stage int, u *state.Fields) {
			if stage == 1 && step == 1 {
				u.Comp[state.ITau][idx] = -1
			}
		}
		for ; step < 3; step++ {
			if err := s.Step(s.MaxDt()); err != nil {
				t.Fatalf("step %d not repaired: %v", step, err)
			}
		}
		out := make([]float64, 0, state.NComp*g.NCells())
		for c := 0; c < state.NComp; c++ {
			out = append(out, g.U.Comp[c]...)
		}
		return out, s.St.Troubled.Load(), s.St.Repaired.Load()
	}
	legacy, ltr, lrep := run(true)
	tiled, ttr, trep := run(false)
	if ltr == 0 || lrep != ltr {
		t.Fatalf("legacy repair stats troubled=%d repaired=%d", ltr, lrep)
	}
	if ttr != ltr || trep != lrep {
		t.Fatalf("tiled repair stats troubled=%d repaired=%d, legacy %d/%d",
			ttr, trep, ltr, lrep)
	}
	requireBitwiseEqual(t, "failsafe", legacy, tiled)
}

// Negative tile extents are configuration errors.
func TestTileConfigValidation(t *testing.T) {
	g := blast3DGrid(8, 8, 1)
	for _, tc := range []struct{ tj, tk int }{{-1, 0}, {0, -4}} {
		cfg := DefaultConfig()
		cfg.TileJ, cfg.TileK = tc.tj, tc.tk
		if _, err := New(g, cfg); err == nil {
			t.Errorf("TileJ=%d TileK=%d accepted", tc.tj, tc.tk)
		}
	}
}
