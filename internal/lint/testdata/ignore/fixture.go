// Package fixture exercises //lint:ignore edge cases against the
// concurrency-contract analyzers: multi-analyzer directives, directives
// over statements that wrap across lines, and the one-line reach limit.
package fixture

type Mutex struct{ _ int }

func (m *Mutex) Lock()   {}
func (m *Mutex) Unlock() {}

type A struct{ mu Mutex }

type B struct{ mu Mutex }

// A directive naming two analyzers suppresses either one's finding on
// the next line: here it silences lockorder (the lock below closes the
// A/B cycle), in wrappedSuppressed the identical directive silences
// goroleak.
func suppressedBoth(a *A, b *B) {
	a.mu.Lock()
	//lint:ignore lockorder,goroleak order is protected by the rank barrier
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}

// The reverse order is NOT suppressed — proving the directive above is
// line-scoped, not package-scoped.
func reverseStillFlagged(a *A, b *B) {
	b.mu.Lock()
	a.mu.Lock() // want "lock order cycle: A.mu acquired while holding B.mu"
	a.mu.Unlock()
	b.mu.Unlock()
}

// A directive immediately above a statement that wraps across several
// lines suppresses the diagnostic, because the diagnostic anchors to
// the statement's FIRST line (where the `go` keyword sits).
func wrappedSuppressed() {
	x := 0
	//lint:ignore lockorder,goroleak fire-and-forget telemetry flush by design
	go func(
		delta int,
	) {
		x += delta
	}(1)
	_ = x
}

// The same wrapped statement two lines below its directive is out of
// reach: directives cover their own line and the next one only.
func wrappedTooFar() {
	x := 0
	//lint:ignore goroleak directive is one line too high
	_ = x
	go func() { // want "no reachable join or teardown path"
		x++
	}()
}

// A directive naming an unrelated analyzer does not suppress.
func wrongName(a *A, b *B) {
	b.mu.Lock()
	a.mu.Unlock()
	//lint:ignore ownedbuf names a different analyzer
	b.mu.Lock() // want "reacquired while already held"
	b.mu.Unlock()
	_ = a
}
