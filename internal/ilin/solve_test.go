package ilin

import (
	"testing"
	"testing/quick"

	"tilespace/internal/rat"
)

func TestRank(t *testing.T) {
	if got := Identity(3).Rat().Rank(); got != 3 {
		t.Errorf("rank(I3) = %d", got)
	}
	if got := MatFromRows([]int64{1, 2}, []int64{2, 4}).Rat().Rank(); got != 1 {
		t.Errorf("rank = %d, want 1", got)
	}
	if got := NewMat(2, 2).Rat().Rank(); got != 0 {
		t.Errorf("rank(0) = %d", got)
	}
}

func TestNullSpace(t *testing.T) {
	// x + y + z = 0, y - z = 0 → null space spanned by (-2, 1, 1).
	m := MatFromRows([]int64{1, 1, 1}, []int64{0, 1, -1}).Rat()
	ns := m.NullSpace()
	if len(ns) != 1 {
		t.Fatalf("nullity = %d, want 1", len(ns))
	}
	if !ratMulVec(m, ns[0]).IsZero() {
		t.Errorf("m·v != 0 for v = %v", ns[0])
	}
	p := Primitive(ns[0])
	if !p.Equal(NewVec(-2, 1, 1)) && !p.Equal(NewVec(2, -1, -1)) {
		t.Errorf("primitive null vector = %v", p)
	}
}

func TestNullSpaceFull(t *testing.T) {
	ns := Identity(2).Rat().NullSpace()
	if len(ns) != 0 {
		t.Errorf("identity nullity = %d, want 0", len(ns))
	}
	ns = NewMat(2, 3).Rat().NullSpace()
	if len(ns) != 3 {
		t.Errorf("zero-matrix nullity = %d, want 3", len(ns))
	}
}

func TestPrimitive(t *testing.T) {
	v := RatVec{rat.New(1, 2), rat.New(-3, 4), rat.Zero}
	if got := Primitive(v); !got.Equal(NewVec(2, -3, 0)) {
		t.Errorf("Primitive = %v", got)
	}
	if got := Primitive(RatVec{rat.FromInt(4), rat.FromInt(6)}); !got.Equal(NewVec(2, 3)) {
		t.Errorf("Primitive(4,6) = %v", got)
	}
	if got := Primitive(RatVec{rat.Zero, rat.Zero}); !got.IsZero() {
		t.Errorf("Primitive(0) = %v", got)
	}
}

func TestQuickRankNullity(t *testing.T) {
	f := func(s [9]byte) bool {
		m := randMat(3, s[:]).Rat()
		ns := m.NullSpace()
		if m.Rank()+len(ns) != 3 {
			return false
		}
		for _, v := range ns {
			if !ratMulVec(m, v).IsZero() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
