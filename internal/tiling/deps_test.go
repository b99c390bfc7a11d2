package tiling

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"tilespace/internal/ilin"
	"tilespace/internal/rat"
)

// tileDepsPointwise is D^S swept point by point: ⌊(j' + d'_l)/v⌋ at every
// TTIS point and every column of dp, the distinct nonzero offsets in
// lexicographic order. tileDeps's jumps along a row must find exactly these.
func tileDepsPointwise(t *Transform, dp *ilin.Mat) []ilin.Vec {
	seen := map[string]ilin.Vec{}
	ttisPoints(t, func(z, jp ilin.Vec) bool {
		for l := 0; l < dp.Cols; l++ {
			off := make(ilin.Vec, t.N)
			for k := range off {
				off[k] = rat.FloorDiv(jp[k]+dp.At(k, l), t.V[k])
			}
			if !off.IsZero() {
				seen[off.String()] = off
			}
		}
		return true
	})
	var ds []ilin.Vec
	for _, v := range seen {
		ds = append(ds, v)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].LexLess(ds[j]) })
	return ds
}

// TileDepsPointwise exports the oracle to the shipped-family test.
var TileDepsPointwise = tileDepsPointwise

// TestTileDepsMatchPointSweep: D^S found by jumping along TTIS rows equals
// the point-by-point sweep over TestRandomTilings' tilings (same generator
// and seeds) under random D' with entries in [−2v_k, 2v_k], so a row's
// offsets cross several multiples of v either side of zero; over §4's SOR
// and Jacobi families with their skewed dependences; and over a tiling
// whose innermost stride c_{n−1} is 2.
func TestTileDepsMatchPointSweep(t *testing.T) {
	cases := 0
	check := func(name string, tr *Transform, dp *ilin.Mat) {
		t.Helper()
		cases++
		if got, want := tileDeps(tr, dp), tileDepsPointwise(tr, dp); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: rows give D^S = %v, points give %v (H' =\n%v\nD' =\n%v)", name, got, want, tr.HP, dp)
		}
	}
	for _, c := range []struct {
		n, trials   int
		seed        int64
		lim, maxDet int64
	}{{2, 120, 12345, 3, 29}, {3, 40, 777, 2, 20}} {
		rng := rand.New(rand.NewSource(c.seed))
		for done := 0; done < c.trials; {
			tr, err := FromP(randomP(rng, c.n, c.lim, c.maxDet))
			if err != nil {
				continue
			}
			dp := ilin.NewMat(c.n, 1+rng.Intn(4))
			for k := 0; k < c.n; k++ {
				for l := 0; l < dp.Cols; l++ {
					dp.Set(k, l, rng.Int63n(4*tr.V[k]+1)-2*tr.V[k])
				}
			}
			check(fmt.Sprintf("random %d-D #%d", c.n, done), tr, dp)
			done++
		}
	}
	sorD := ilin.MatFromRows([]int64{1, 0, 1, 1, 0}, []int64{1, 1, 0, 1, 0}, []int64{2, 0, 2, 1, 1})
	jacD := ilin.MatFromRows([]int64{1, 1, 1, 1, 1}, []int64{1, 2, 0, 1, 1}, []int64{1, 1, 1, 2, 0})
	for _, f := range []struct {
		name string
		h    *ilin.RatMat
		d    *ilin.Mat
	}{
		{"sor/nonrect", sorHnr(2, 4, 4), sorD},
		{"sor/rect", mustRect(t, 2, 4, 4).H, sorD},
		{"jacobi/nonrect", jacobiHnr(2, 4, 4), jacD},
		{"jacobi/rect", mustRect(t, 2, 4, 4).H, jacD},
	} {
		tr := mustNew(t, f.h)
		check(f.name, tr, tr.TransformedDeps(f.d))
	}
	stride2 := mustNew(t, ilin.MatFromRows([]int64{1, 1}, []int64{-1, 1}).Inverse())
	if c := stride2.C[1]; c != 2 {
		t.Fatalf("the stride-2 fixture's innermost stride is %d", c)
	}
	check("stride-2", stride2, stride2.TransformedDeps(ilin.MatFromRows([]int64{1, 1, 0, 3}, []int64{0, 1, 1, -2})))
	t.Logf("%d tilings checked", cases)
}
