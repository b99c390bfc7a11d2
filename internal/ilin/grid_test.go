package ilin

import "testing"

func checkPartition(t *testing.T, w []int64, k int, segs [][2]int) {
	t.Helper()
	if len(segs) != k {
		t.Fatalf("got %d segments, want %d", len(segs), k)
	}
	if segs[0][0] != 0 || segs[k-1][1] != len(w) {
		t.Fatalf("segments %v do not span [0, %d)", segs, len(w))
	}
	for i := range segs {
		if segs[i][0] > segs[i][1] {
			t.Fatalf("segment %d inverted: %v", i, segs[i])
		}
		if i > 0 && segs[i][0] != segs[i-1][1] {
			t.Fatalf("segment %d starts at %d, previous ends at %d", i, segs[i][0], segs[i-1][1])
		}
	}
}

func TestSplitByWeightBalance(t *testing.T) {
	// Ten unit weights across three segments: 4/3/3.
	w := make([]int64, 10)
	for i := range w {
		w[i] = 1
	}
	segs := SplitByWeight(nil, w, 3)
	checkPartition(t, w, 3, segs)
	want := [][2]int{{0, 4}, {4, 7}, {7, 10}}
	for i := range segs {
		if segs[i] != want[i] {
			t.Fatalf("segs = %v, want %v", segs, want)
		}
	}

	// One heavy item cannot be split — it lands alone, neighbours absorb
	// the rest, and the partition invariants still hold.
	w = []int64{1, 100, 1, 1, 1}
	segs = SplitByWeight(nil, w, 3)
	checkPartition(t, w, 3, segs)
	var first int64
	for i := segs[0][0]; i < segs[0][1]; i++ {
		first += w[i]
	}
	if first < 35 { // ⌈104/3⌉ = 35: first segment must reach its target
		t.Fatalf("first segment weight %d below target 35: %v", first, segs)
	}
}

func TestSplitByWeightEdges(t *testing.T) {
	// More segments than items: the two items land in singleton segments
	// (no segment is forced to take both), the rest are empty.
	w := []int64{5, 5}
	segs := SplitByWeight(nil, w, 4)
	checkPartition(t, w, 4, segs)
	for i, s := range segs {
		if s[1]-s[0] > 1 {
			t.Fatalf("segment %d holds %d items, want ≤1: %v", i, s[1]-s[0], segs)
		}
	}

	// All-zero weights: everything rides the last segment's tail rule.
	w = []int64{0, 0, 0}
	segs = SplitByWeight(nil, w, 2)
	checkPartition(t, w, 2, segs)

	// k < 1 clamps to one segment covering everything.
	segs = SplitByWeight(nil, []int64{1, 2, 3}, 0)
	checkPartition(t, []int64{1, 2, 3}, 1, segs)

	// Empty input still yields k well-formed empty segments.
	segs = SplitByWeight(nil, nil, 3)
	checkPartition(t, nil, 3, segs)
}

func TestSplitByWeightDeterministic(t *testing.T) {
	w := []int64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	a := SplitByWeight(nil, w, 4)
	b := SplitByWeight(nil, w, 4)
	checkPartition(t, w, 4, a)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("split not deterministic: %v vs %v", a, b)
		}
	}
}
