// Package fixture exercises the ownedbuf analyzer. It is self-contained
// (no imports) so the test harness can type-check it without an importer.
package fixture

type world struct{ rank int }

func (w *world) SendOwned(dst, tag int, buf []int64)  {}
func (w *world) IsendOwned(dst, tag int, buf []int64) {}
func (w *world) WaitSends()                           {}
func (w *world) Send(dst, tag int, buf []int64)       {}

func useAfterSend(w *world, buf []int64) {
	w.SendOwned(0, 1, buf)
	buf[0] = 3 // want "buf is used after being passed to SendOwned"
}

func readAfterIsend(w *world, buf []int64) int64 {
	w.IsendOwned(0, 1, buf)
	w.WaitSends()
	return buf[0] // want "buf is used after being passed to IsendOwned"
}

func appendAfterSend(w *world, buf []int64) []int64 {
	w.SendOwned(0, 1, buf)
	buf = append(buf, 4) // want "buf is used after being passed to SendOwned"
	return buf
}

func resendAfterSend(w *world, buf []int64) {
	w.SendOwned(0, 1, buf)
	w.SendOwned(0, 2, buf) // want "buf is used after being passed to SendOwned"
}

// len and cap read only the copied slice header, never the transferred
// backing array.
func headerReadsAreFine(w *world, buf []int64) int {
	w.IsendOwned(0, 1, buf)
	n := len(buf) + cap(buf)
	w.WaitSends()
	return n
}

// Reassigning the whole variable points it at a fresh array, ending the
// taint.
func reassignKillsTaint(w *world, buf []int64) int64 {
	w.SendOwned(0, 1, buf)
	buf = make([]int64, 4)
	return buf[0]
}

// A plain Send copies the buffer; the caller keeps ownership.
func plainSendKeepsOwnership(w *world, buf []int64) int64 {
	w.Send(0, 1, buf)
	return buf[0]
}

// A use in a sibling branch is not sequentially after the send.
func siblingBranchIsFine(w *world, buf []int64, flag bool) int64 {
	if flag {
		w.SendOwned(0, 1, buf)
	} else {
		return buf[0]
	}
	return 0
}

// Switch cases are mutually exclusive: a send in one case does not taint
// a sibling case — but a use inside the same case body still counts.
func switchCases(w *world, buf []int64, rank int) int64 {
	switch rank {
	case 0:
		w.SendOwned(1, 1, buf)
		return buf[0] // want "buf is used after being passed to SendOwned"
	case 1:
		return buf[1]
	}
	return 0
}

// The suppression directive silences the finding on the next line.
func suppressed(w *world, buf []int64) {
	w.SendOwned(0, 1, buf)
	//lint:ignore ownedbuf fixture proves the directive is honored
	buf[0] = 3
}
