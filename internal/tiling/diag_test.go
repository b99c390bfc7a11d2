package tiling

import (
	"errors"
	"strings"
	"testing"

	"tilespace/internal/ilin"
	"tilespace/internal/loopnest"
	"tilespace/internal/rat"
)

// These tests pin the exact diagnostic text of every analysis-time
// rejection. The wording is load-bearing: internal/verify re-proves the
// same facts over an already-built TiledSpace through the same error
// constructors, so analysis and certification must keep speaking one
// vocabulary (a drift here would show users two names for one defect).

func TestDiagIllegalTransform(t *testing.T) {
	h := ratMat(t,
		[]string{"-1/2", "1/2"},
		[]string{"0", "1/2"},
	)
	nest := box2(t, 5, 5, unitDeps2())
	_, err := Analyze(nest, h)
	if err == nil {
		t.Fatal("illegal tiling not rejected")
	}
	want := "tiling: illegal transformation: H·D has negative entries (some dependence crosses tiles backwards)"
	if err.Error() != want {
		t.Errorf("diagnostic drifted:\n got %q\nwant %q", err, want)
	}
	if err.Error() != ErrIllegalTransform().Error() {
		t.Errorf("Analyze and ErrIllegalTransform disagree: %q vs %q", err, ErrIllegalTransform())
	}
}

func TestDiagDependenceReach(t *testing.T) {
	// Dependence (3,0) against 2×2 tiles: reach 3 exceeds v_1 = 2.
	nest, err := loopnest.Box([]string{"i", "j"}, []int64{0, 0}, []int64{5, 5},
		ilin.MatFromRows([]int64{3, 0}, []int64{0, 1}))
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := Rectangular(2, 2)
	_, aerr := Analyze(nest, tr.H)
	if aerr == nil {
		t.Fatal("dependence longer than tile not rejected")
	}
	want := "tiling: dependence reach 3 exceeds tile extent v_1 = 2; enlarge the tile along dimension 1"
	if aerr.Error() != want {
		t.Errorf("diagnostic drifted:\n got %q\nwant %q", aerr, want)
	}
	if aerr.Error() != ErrDependenceReach(3, 0, 2).Error() {
		t.Errorf("Analyze and ErrDependenceReach disagree: %q vs %q", aerr, ErrDependenceReach(3, 0, 2))
	}
}

func TestDiagDimensionMismatch(t *testing.T) {
	nest := box2(t, 5, 5, unitDeps2())
	tr, _ := Rectangular(2, 2, 2)
	_, err := Analyze(nest, tr.H)
	if err == nil {
		t.Fatal("dimension mismatch not rejected")
	}
	want := "tiling: H is 3-dimensional, nest is 2-dimensional"
	if err.Error() != want {
		t.Errorf("diagnostic drifted:\n got %q\nwant %q", err, want)
	}
}

// The tile-dependence diagnostics cannot be reached through Analyze on a
// well-formed nest (the reach check fires first), but the certifier
// raises them verbatim on a TiledSpace mutated after analysis — so their
// text is pinned here where the constructors live.
func TestDiagTileDepConstructors(t *testing.T) {
	d := ilin.NewVec(2, 1)
	want := "tiling: tile dependence (2, 1) has component outside {0,1}; the tile is too small along dimension 1 for the §3.2 communication scheme"
	if got := ErrTileDepRange(d, 0).Error(); got != want {
		t.Errorf("ErrTileDepRange drifted:\n got %q\nwant %q", got, want)
	}
	neg := ilin.NewVec(0, -1)
	wantLex := "tiling: tile dependence (0, -1) is not lexicographically positive"
	if got := ErrTileDepNotLexPositive(neg).Error(); got != wantLex {
		t.Errorf("ErrTileDepNotLexPositive drifted:\n got %q\nwant %q", got, wantLex)
	}
}

// TestDiagOverflow: sizes that leave int64 in the exact arithmetic — a
// bound of 2^62 tiled by 2, a tile edge of 1/MaxInt64 — are an
// *OverflowError from Analyze, not a panic.
func TestDiagOverflow(t *testing.T) {
	for name, c := range map[string]struct {
		hi1 int64
		row string
	}{
		"bound": {1 << 62, "1/2"},
		"tile":  {4, "1/9223372036854775807"},
	} {
		h := ratMat(t, []string{c.row, "0"}, []string{"0", "1/2"})
		_, err := Analyze(box2(t, c.hi1, 4, unitDeps2()), h)
		var oe *OverflowError
		var ov rat.Overflow
		if !errors.As(err, &oe) || !errors.As(err, &ov) || !strings.Contains(err.Error(), "int64 overflow") {
			t.Errorf("%s: err = %v, want an *OverflowError wrapping the rat.Overflow", name, err)
		}
	}
}

func ratMat(t *testing.T, rows ...[]string) *ilin.RatMat {
	t.Helper()
	m, err := ilin.ParseRatMat(rows)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
