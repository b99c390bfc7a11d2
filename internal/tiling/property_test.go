package tiling

import (
	"math/rand"
	"testing"
	"time"

	"tilespace/internal/ilin"
	"tilespace/internal/loopnest"
	"tilespace/internal/poly"
	"tilespace/internal/rat"
)

// randomP draws an integral n×n matrix with entries in [-lim, lim] and
// 0 < |det| ≤ maxDet, so the tile stays small enough to brute-force.
func randomP(rng *rand.Rand, n int, lim, maxDet int64) *ilin.Mat {
	p := ilin.NewMat(n, n)
	for {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				p.Set(i, j, rng.Int63n(2*lim+1)-lim)
			}
		}
		if d := p.Det(); d != 0 && d <= maxDet && d >= -maxDet {
			return p
		}
	}
}

// TestRandomTilings cross-checks the analyzer against brute force on seeded
// random integral tilings P of random convex spaces (a box, half the time
// cut by the halfplane Σx ≤ c), in 2-D and 3-D: ScanTTIS visits TileSize
// points, the tiles partition the space, and every tile's point count —
// closed-form, fast path, scanned, and restricted to j' ≥ minJP — equals
// the count obtained by classifying every point of the nest with TileOf.
// A P the analyzer rejects (illegal, or refused by the Fourier–Motzkin
// bound) is skipped: the property is about the tilings it accepts.
func TestRandomTilings(t *testing.T) {
	for _, c := range []struct {
		name        string
		n, trials   int
		seed        int64
		lim, maxDet int64
		maxHi       int64
	}{
		{name: "2d", n: 2, trials: 120, seed: 12345, lim: 3, maxDet: 29, maxHi: 14},
		{name: "3d", n: 3, trials: 40, seed: 777, lim: 2, maxDet: 20, maxHi: 7},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			trials := c.trials
			if testing.Short() {
				trials /= 10
			}
			rng := rand.New(rand.NewSource(c.seed))
			n := c.n
			for done, iter := 0, 0; done < trials && iter < 50*trials; iter++ {
				p := randomP(rng, n, c.lim, c.maxDet)
				tr, err := FromP(p)
				if err != nil {
					continue
				}
				if cnt := tr.ScanTTIS(func(z, jp ilin.Vec, n int64) bool { return true }); cnt != tr.TileSize {
					t.Fatalf("ScanTTIS count %d != TileSize %d, P=%v", cnt, tr.TileSize, p)
				}
				s := poly.NewSystem(n)
				var sum int64
				for k := 0; k < n; k++ {
					hi := rng.Int63n(c.maxHi-2) + 3
					s.AddRange(k, 0, hi)
					sum += hi
				}
				if rng.Intn(2) == 0 {
					ones := make(ilin.RatVec, n)
					for k := range ones {
						ones[k] = rat.One
					}
					s.Add(poly.Constraint{Coef: ones, Rhs: rat.FromInt(sum/2 + rng.Int63n(sum/2))})
				}
				nest, err := loopnest.New(nil, s, nil)
				if err != nil {
					continue
				}
				ts, err := Analyze(nest, tr.H)
				if err != nil {
					continue
				}
				done++
				sz, _ := nest.Size()
				if tot := ts.TotalPoints(); tot != sz {
					t.Fatalf("TotalPoints %d != nest size %d, P=%v space:\n%v", tot, sz, p, s)
				}
				nb, _ := nest.Bounds()
				brute := map[string]int64{}
				nb.Scan(func(x ilin.Vec) bool {
					brute[tr.TileOf(x).String()]++
					return true
				})
				ts.ScanTiles(func(jS ilin.Vec) bool {
					jS = jS.Clone()
					want := brute[jS.String()]
					if got := ts.TilePointCount(jS); got != want {
						t.Fatalf("tile %v: TilePointCount %d != brute %d, P=%v space:\n%v", jS, got, want, p, s)
					}
					if got := ts.CountTilePoints(jS); got != want {
						t.Fatalf("tile %v: CountTilePoints %d != brute %d, P=%v space:\n%v", jS, got, want, p, s)
					}
					return true
				})
			}
		})
	}
}

// TestRandomTileDepsComplete: for seeded random legal 2-D tilings with
// random lex-positive dependences, every tile offset a dependence actually
// crosses inside the space — TileOf(j+d) − TileOf(j), found by brute force
// over the whole nest — is in the computed D^S.
func TestRandomTileDepsComplete(t *testing.T) {
	trials := 80
	if testing.Short() {
		trials = 10
	}
	rng := rand.New(rand.NewSource(99))
	for done, iter := 0, 0; done < trials && iter < 6000; iter++ {
		p := randomP(rng, 2, 4, 40)
		tr, err := FromP(p)
		if err != nil {
			continue
		}
		q := rng.Intn(3) + 1
		deps := ilin.NewMat(2, q)
		for l := 0; l < q; l++ {
			for i := 0; i < 2; i++ {
				deps.Set(i, l, int64(rng.Intn(3)))
			}
			if !deps.Col(l).LexPositive() {
				deps.Set(0, l, 1)
			}
		}
		nest, err := loopnest.Box(nil, []int64{0, 0}, []int64{int64(rng.Intn(10) + 4), int64(rng.Intn(10) + 4)}, deps)
		if err != nil {
			continue
		}
		ts, err := Analyze(nest, tr.H)
		if err != nil {
			continue // illegal for these dependences
		}
		done++
		inDS := map[string]bool{}
		for _, v := range ts.DS {
			inDS[v.String()] = true
		}
		nb, _ := nest.Bounds()
		nb.Scan(func(j ilin.Vec) bool {
			for l := 0; l < deps.Cols; l++ {
				jd := j.Add(deps.Col(l))
				if !nest.Space.Contains(jd) {
					continue
				}
				off := ts.T.TileOf(jd).Sub(ts.T.TileOf(j))
				if !off.IsZero() && !inDS[off.String()] {
					t.Fatalf("offset %v (j=%v d=%v) missing from DS=%v, P=%v", off, j, deps.Col(l), ts.DS, p)
				}
			}
			return true
		})
	}
}

// TestAnalyzeRefusesFourierMotzkinBlowUp is the regression for the input
// that used to hang tier-1: a valid 3×3 tiling of a small box whose
// combined bounds system squares its constraint count at every elimination
// step. poly's per-step pair bound must turn it into a prompt error.
func TestAnalyzeRefusesFourierMotzkinBlowUp(t *testing.T) {
	tr, err := FromP(ilin.MatFromRows([]int64{0, -2, 2}, []int64{-1, -1, -2}, []int64{2, -1, -1}))
	if err != nil {
		t.Fatal(err)
	}
	s := poly.NewSystem(3)
	s.AddRange(0, 0, 3)
	s.AddRange(1, 0, 5)
	s.AddRange(2, 0, 3)
	s.Add(poly.Constraint{Coef: ilin.RatVec{rat.One, rat.One, rat.One}, Rhs: rat.FromInt(11)})
	nest, err := loopnest.New(nil, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = Analyze(nest, tr.H)
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("Analyze took %v, want < 5s", took)
	}
	if err == nil {
		t.Fatal("Analyze accepted the blow-up input; the Fourier–Motzkin bound did not fire")
	}
	t.Logf("refused after %v: %v", time.Since(start).Round(time.Millisecond), err)
}
