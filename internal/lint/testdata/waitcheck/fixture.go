// Package fixture exercises the waitcheck analyzer. It is self-contained
// (no imports) so the test harness can type-check it without an importer.
package fixture

type request struct{ done bool }

func (r *request) Wait()      {}
func (r *request) Test() bool { return r.done }

type world struct{ rank int }

func (w *world) Isend(dst, tag int, buf []int64) *request      { return &request{} }
func (w *world) IsendOwned(dst, tag int, buf []int64) *request { return &request{} }
func (w *world) Waitall(rs []*request)                         {}

func discarded(w *world, buf []int64) {
	w.Isend(0, 1, buf) // want "result of Isend is discarded"
}

func blankDiscard(w *world, buf []int64) {
	var r *request
	r = w.Isend(0, 1, buf)
	_ = r
	_ = w.Isend(0, 1, buf) // want "result of Isend is discarded"
}

func leakedInLoop(w *world, buf []int64, n int) {
	r := w.Isend(0, 1, buf) // want "request r from Isend may reach the end of its scope"
	for i := 0; i < n; i++ {
		if buf[i] < 0 {
			r.Wait()
		}
	}
}

func maybeLeaked(w *world, buf []int64, flag bool) {
	r := w.IsendOwned(0, 1, buf) // want "request r from IsendOwned may reach the end of its scope"
	if flag {
		r.Wait()
	}
}

func returnLeak(w *world, buf []int64, flag bool) {
	r := w.Isend(0, 1, buf)
	if flag {
		return // want "return leaves request r from Isend"
	}
	r.Wait()
}

func straightWait(w *world, buf []int64) {
	r := w.Isend(0, 1, buf)
	r.Wait()
}

func bothBranchesResolve(w *world, buf []int64, flag bool) {
	r := w.Isend(0, 1, buf)
	if flag {
		r.Wait()
	} else {
		for !r.Test() {
		}
	}
}

func deferredWait(w *world, buf []int64) int64 {
	r := w.Isend(0, 1, buf)
	defer r.Wait()
	return buf[0]
}

func deferredClosureWait(w *world, buf []int64) int64 {
	r := w.Isend(0, 1, buf)
	defer func() { r.Wait() }()
	return buf[0]
}

// Appending to a pending list hands the request to whoever drains it.
func escapesToPending(w *world, buf []int64) []*request {
	var pending []*request
	r := w.IsendOwned(0, 1, buf)
	pending = append(pending, r)
	w.Waitall(pending)
	return pending
}

// Panic unwinds the stack; the path does not leak the request.
func panicPath(w *world, buf []int64, flag bool) {
	r := w.Isend(0, 1, buf)
	if !flag {
		panic("bad rank")
	}
	r.Wait()
}

// Returning the request transfers responsibility to the caller.
func returned(w *world, buf []int64) *request {
	r := w.Isend(0, 1, buf)
	return r
}
