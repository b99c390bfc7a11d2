package ilin

// SplitByWeight partitions the index range [0, len(w)) into exactly k
// contiguous segments [lo, hi) whose weight totals are balanced: segment i
// ends at the smallest prefix whose cumulative weight reaches
// ⌈total·(i+1)/k⌉. The split is deterministic (same weights, same
// segments), segments may be empty when k exceeds the item count, and
// weights must be non-negative. This is the local work-grid indexer: the
// executor splits a wavefront's stride-1 runs across its worker pool by
// point count, so every worker gets contiguous LDS traffic. The segments are
// written into dst's backing array when it holds k entries (a worker pool
// splits per wavefront without allocating); a nil dst allocates.
func SplitByWeight(dst [][2]int, w []int64, k int) [][2]int {
	if k < 1 {
		k = 1
	}
	var total int64
	for _, x := range w {
		total += x
	}
	segs := dst[:0]
	if cap(segs) < k {
		segs = make([][2]int, k)
	}
	segs = segs[:k]
	pos := 0
	var cum int64
	for i := 0; i < k; i++ {
		segs[i][0] = pos
		target := (total*int64(i+1) + int64(k) - 1) / int64(k)
		for pos < len(w) && cum < target {
			cum += w[pos]
			pos++
		}
		segs[i][1] = pos
	}
	// Zero-weight tails (all-zero weights) stay with the last segment.
	segs[k-1][1] = len(w)
	return segs
}
