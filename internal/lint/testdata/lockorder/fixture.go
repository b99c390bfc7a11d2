// Package fixture exercises the lockorder analyzer. It imports nothing:
// the analyzer matches mutexes by type name (Mutex/RWMutex), so these
// stand-ins behave exactly like sync's.
package fixture

type Mutex struct{ _ int }

func (m *Mutex) Lock()   {}
func (m *Mutex) Unlock() {}

type RWMutex struct{ _ int }

func (m *RWMutex) RLock()   {}
func (m *RWMutex) RUnlock() {}
func (m *RWMutex) Lock()    {}
func (m *RWMutex) Unlock()  {}

type A struct{ mu Mutex }

type B struct{ mu Mutex }

// abOrder and baOrder disagree: classic ABBA. Both closing edges are
// reported.
func abOrder(a *A, b *B) {
	a.mu.Lock()
	b.mu.Lock() // want "lock order cycle: B.mu acquired while holding A.mu"
	b.mu.Unlock()
	a.mu.Unlock()
}

func baOrder(a *A, b *B) {
	b.mu.Lock()
	a.mu.Lock() // want "lock order cycle: A.mu acquired while holding B.mu"
	a.mu.Unlock()
	b.mu.Unlock()
}

// consistent nests in one order only — and releasing before the second
// acquisition breaks the edge entirely.
type C struct{ mu Mutex }

type D struct{ mu RWMutex }

func cdOne(c *C, d *D) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d.mu.RLock()
	d.mu.RUnlock()
}

func cdTwo(c *C, d *D) {
	c.mu.Lock()
	c.mu.Unlock()
	d.mu.Lock() // no edge: C.mu already released
	d.mu.Unlock()
}

// relock is a certain self-deadlock: same class, same receiver, still
// held.
func relock(a *A) {
	a.mu.Lock()
	a.mu.Lock() // want "lock order: A.mu .a.mu. reacquired while already held"
	a.mu.Unlock()
	a.mu.Unlock()
}

// twoInstances locks two values of one class: instance ordering, which
// the analyzer deliberately stays silent on.
func twoInstances(x, y *A) {
	x.mu.Lock()
	y.mu.Lock()
	y.mu.Unlock()
	x.mu.Unlock()
}

// Transitive cycle: lockF acquires F.mu; eThenF calls it under E.mu,
// while fThenE takes the opposite direct order.
type E struct{ mu Mutex }

type F struct{ mu Mutex }

func lockF(f *F) {
	f.mu.Lock()
	f.mu.Unlock()
}

func eThenF(e *E, f *F) {
	e.mu.Lock()
	lockF(f) // want "lock order cycle: F.mu acquired while holding E.mu"
	e.mu.Unlock()
}

func fThenE(e *E, f *F) {
	f.mu.Lock()
	e.mu.Lock() // want "lock order cycle: E.mu acquired while holding F.mu"
	e.mu.Unlock()
	f.mu.Unlock()
}

// Methods participate under their Type.method key, and deep chains
// (two hops) still close the cycle.
type G struct {
	mu Mutex
	h  *H
}

type H struct{ mu Mutex }

func (h *H) poke() {
	h.mu.Lock()
	h.mu.Unlock()
}

func (h *H) pokeViaHelper() {
	h.poke()
}

func (g *G) lockThenCall() {
	g.mu.Lock()
	g.h.pokeViaHelper() // want "lock order cycle: H.mu acquired while holding G.mu"
	g.mu.Unlock()
}

func (h *H) reverse(g *G) {
	h.mu.Lock()
	g.mu.Lock() // want "lock order cycle: G.mu acquired while holding H.mu"
	g.mu.Unlock()
	h.mu.Unlock()
}

// A goroutine body starts with an empty held set: the literal's A-then-B
// order plus baOrder's B-then-A already forms the reported cycle above,
// but the spawn itself under no lock adds nothing new.
func spawned(a *A, b *B) {
	go func() {
		a.mu.Lock()
		a.mu.Unlock()
	}()
	_ = b
}

// A goroutine spawned under a lock does not run under it: spawnUnderP
// starts q.work while P.mu is held, but work locks Q.mu on a goroutine that
// holds nothing, so qThenP's Q-then-P order closes no cycle.
type P struct{ mu Mutex }

type Q struct{ mu Mutex }

func (q *Q) work() {
	q.mu.Lock()
	q.mu.Unlock()
}

func spawnUnderP(p *P, q *Q) {
	p.mu.Lock()
	go q.work()
	p.mu.Unlock()
}

func qThenP(p *P, q *Q) {
	q.mu.Lock()
	p.mu.Lock()
	p.mu.Unlock()
	q.mu.Unlock()
}

// The operands of a go statement are evaluated by the spawner, under its
// held set: snapshot locks T.mu while S.mu is held.
type S struct{ mu Mutex }

type T struct {
	mu Mutex
	n  int
}

func (t *T) snapshot() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

func consume(int) {}

func spawnWithOperand(s *S, t *T) {
	s.mu.Lock()
	go consume(t.snapshot()) // want "lock order cycle: T.mu acquired while holding S.mu"
	s.mu.Unlock()
}

func tThenS(s *S, t *T) {
	t.mu.Lock()
	s.mu.Lock() // want "lock order cycle: S.mu acquired while holding T.mu"
	s.mu.Unlock()
	t.mu.Unlock()
}

// localOnly uses a function-local mutex: out of scope, never reported.
func localOnly(a *A) {
	var mu Mutex
	mu.Lock()
	a.mu.Lock()
	a.mu.Unlock()
	mu.Unlock()
}
