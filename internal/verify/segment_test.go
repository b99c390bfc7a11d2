package verify

import (
	"math/rand"
	"slices"
	"testing"
)

// pointwiseGood applies the per-point rule to the m points segment judges,
// on copies of content and the ownership map: it returns the first point
// that fails, m if none does.
func pointwiseGood(rp *replayer, content, reads []int64, write, off, code, m int64) int64 {
	content, owner := slices.Clone(content), slices.Clone(rp.owner)
	in := func(c int64) bool { return c >= 0 && c < int64(len(content)) }
	for k := int64(0); k < m; k++ {
		ck := code + k*rp.sstep
		for l, rd := range reads {
			if c := rd + off + k; !in(c) || content[c] != ck-rp.depShift[l] {
				return k
			}
		}
		c := write + off + k
		if !in(c) || owner[ck] != 0 {
			return k
		}
		owner[ck], content[c] = 1, ck
	}
	return m
}

// TestSegmentMatchesPointwise: on random small LDS contents, read and write
// cells, code steps and ownership, segment's good prefix ends at the first
// point the per-point rule rejects, it counts one check per read and write
// of the prefix, and it writes nothing. Most read cells are primed with the
// codes the reads expect, so the prefix often reaches a row reading its own
// writes, where only the hazard identity h·sstep = shift(d_l) decides.
func TestSegmentMatchesPointwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	hazards := 0
	for trial := 0; trial < 5000; trial++ {
		q, m := 1+rng.Intn(3), int64(1+rng.Intn(10))
		sstep := int64(1 + rng.Intn(5)) // nonzero: distinct points of the coder's box have distinct codes
		if rng.Intn(2) == 0 {
			sstep = -sstep
		}
		rp := &replayer{rep: &Report{}, sstep: sstep, depShift: make([]int64, q), owner: make([]int32, 4096)}
		content := make([]int64, 8+rng.Intn(32))
		code, write, off := int64(2000+rng.Intn(100)), int64(rng.Intn(len(content))), int64(rng.Intn(5)-2)
		reads := make([]int64, q)
		for l := range reads {
			h := int64(rng.Intn(int(2*m)+3)) - 2
			reads[l], rp.depShift[l] = write-h, h*rp.sstep
			if rng.Intn(3) == 0 {
				rp.depShift[l] += int64(rng.Intn(3) - 1)
			}
			if h >= 1 && h < m && rp.depShift[l] != h*rp.sstep {
				hazards++
			}
			for k := int64(0); k < m; k++ {
				if c := reads[l] + off + k; c >= 0 && c < int64(len(content)) && rng.Intn(10) != 0 {
					content[c] = code + k*rp.sstep - rp.depShift[l]
				}
			}
		}
		if rng.Intn(4) == 0 {
			rp.owner[code+int64(rng.Intn(int(m)))*rp.sstep] = 1
		}
		before := slices.Clone(content)
		good, w := rp.segment(content, reads, write, off, code, m)
		if want := pointwiseGood(rp, content, reads, write, off, code, m); good != want || int64(len(w)) != good {
			t.Fatalf("trial %d: segment passes %d points (%d write cells), the per-point rule %d (reads %v, write %d, off %d, sstep %d, shifts %v, content %v)",
				trial, good, len(w), want, reads, write, off, rp.sstep, rp.depShift, before)
		}
		if !slices.Equal(content, before) {
			t.Fatalf("trial %d: segment wrote the LDS", trial)
		}
		if rp.rep.Checks != good*int64(q+1) {
			t.Fatalf("trial %d: %d checks counted for %d points and %d reads each", trial, rp.rep.Checks, good, q)
		}
	}
	if hazards < 250 {
		t.Errorf("only %d reads of a row's own writes with the hazard identity failing", hazards)
	}
}
