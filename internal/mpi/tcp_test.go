package mpi

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

func newTCPWorldT(t *testing.T, size int, opts Options) *World {
	t.Helper()
	w, err := NewTCPWorld(size, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// TestTCPWorldMatchesChannelStats is the transport contract in
// miniature: the same traffic pattern over loopback TCP produces Stats
// bit-identical to the channel fabric, because all counters are
// sender-side and transport-independent.
func TestTCPWorldMatchesChannelStats(t *testing.T) {
	const size = 5
	opts := Options{Watchdog: 5 * time.Second}

	ch := NewWorldOpts(size, opts)
	if err := ch.RunE(ringTraffic); err != nil {
		t.Fatal(err)
	}
	want := ch.Stats()

	tw := newTCPWorldT(t, size, opts)
	if err := tw.RunE(ringTraffic); err != nil {
		t.Fatal(err)
	}
	if got := tw.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("TCP world stats differ from channel world:\n got %+v\nwant %+v", got, want)
	}
	ws, ok := tw.WireStats()
	if !ok {
		t.Fatal("TCP world reports no WireStats")
	}
	if ws.FramesSent == 0 || ws.FramesRecvd == 0 || ws.Batches == 0 {
		t.Fatalf("no traffic crossed the wire: %+v", ws)
	}
	if ws.FramesSent > 0 && ws.Batches > ws.FramesSent {
		t.Fatalf("more batches than frames: %+v", ws)
	}
	if _, ok := ch.WireStats(); ok {
		t.Fatal("channel world unexpectedly reports WireStats")
	}
}

// TestTCPWorldResetBitIdentical is the satellite-4 contract: a TCP
// world reused via Reset — including after an aborted run that left
// frames in flight on real sockets — is bit-identical to a fresh one.
func TestTCPWorldResetBitIdentical(t *testing.T) {
	const size = 4
	opts := Options{Watchdog: 5 * time.Second}

	fresh := newTCPWorldT(t, size, opts)
	if err := fresh.RunE(ringTraffic); err != nil {
		t.Fatal(err)
	}
	want := fresh.Stats()

	reused := newTCPWorldT(t, size, opts)
	// Aborted dirty run: rank 0 pumps large unclaimed messages at its
	// peers (guaranteed in flight through the mesh when the run dies),
	// then panics; everyone else leaves immediately.
	err := reused.RunE(func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 32; i++ {
				c.IsendOwned(1+(i%(size-1)), 11, make([]float64, 4096))
			}
			panic("injected abort with frames in flight")
		}
	})
	if err == nil {
		t.Fatal("expected the injected abort to surface")
	}

	reused.Reset(opts)
	if got := reused.Stats(); !reflect.DeepEqual(got, Stats{PerRank: make([]RankTraffic, size)}) {
		t.Fatalf("Reset left non-zero stats: %+v", got)
	}
	if err := reused.RunE(ringTraffic); err != nil {
		t.Fatal(err)
	}
	if got := reused.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("reused TCP world stats differ from fresh:\n got %+v\nwant %+v", got, want)
	}
	ws, _ := reused.WireStats()
	if ws.StaleFrames == 0 {
		t.Logf("note: no stale frames observed (abort drained before reset); %+v", ws)
	}
}

// TestTCPWorldRepeatedResetReuse reuses one TCP world across several
// runs, checking stats parity every time — the serve pool's pattern.
func TestTCPWorldRepeatedResetReuse(t *testing.T) {
	const size = 3
	opts := Options{Watchdog: 5 * time.Second}
	ch := NewWorldOpts(size, opts)
	if err := ch.RunE(ringTraffic); err != nil {
		t.Fatal(err)
	}
	want := ch.Stats()

	tw := newTCPWorldT(t, size, opts)
	for i := 0; i < 4; i++ {
		if i > 0 {
			tw.Reset(opts)
		}
		if err := tw.RunE(ringTraffic); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if got := tw.Stats(); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d stats diverged:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// dropAndRecover drives one send → drop link → send sequence with the
// given reconnect delay and watchdog, returning the run error.
func dropAndRecover(t *testing.T, dialDelay, watchdog time.Duration) error {
	t.Helper()
	mesh, err := NewTCPMesh(TCPConfig{Size: 2, DialDelay: dialDelay, PeerWait: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorldTransport(2, Options{Watchdog: watchdog}, mesh)
	t.Cleanup(func() { w.Close() })
	sentFirst := make(chan struct{})
	dropped := make(chan struct{})
	go func() {
		<-sentFirst
		// Let the first frame cross, then sever the link while rank 1 is
		// already parked in its second Recv under the watchdog.
		time.Sleep(20 * time.Millisecond)
		mesh.dropLink(0, 1)
		time.Sleep(10 * time.Millisecond)
		close(dropped)
	}()
	return w.RunE(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 5, []float64{1})
			close(sentFirst)
			<-dropped
			c.Send(1, 5, []float64{2})
			return
		}
		c.Recv(0, 5)
		c.Recv(0, 5)
	})
}

// TestTCPWatchdogToleratesReconnect is the satellite-3 contract: a peer
// mid-reconnect counts as wire activity, never as a
// two-strike stall — with the injected reconnect delay both just under
// and well over the watchdog's two-strike threshold.
func TestTCPWatchdogToleratesReconnect(t *testing.T) {
	const watchdog = 150 * time.Millisecond
	// Just under one watchdog period.
	if err := dropAndRecover(t, 100*time.Millisecond, watchdog); err != nil {
		t.Fatalf("reconnect under threshold tripped the run: %v", err)
	}
	// Well over the two-strike threshold (2 × 150ms): only Busy()
	// coverage keeps the watchdog quiet here.
	if err := dropAndRecover(t, 400*time.Millisecond, watchdog); err != nil {
		t.Fatalf("reconnect over threshold tripped the run: %v", err)
	}
}

// TestTCPWatchdogStillFiresOnRealDeadlock guards against the opposite
// failure: Busy() must not mask a genuine deadlock on an idle mesh.
func TestTCPWatchdogStillFiresOnRealDeadlock(t *testing.T) {
	w := newTCPWorldT(t, 2, Options{Watchdog: 100 * time.Millisecond})
	err := w.RunE(func(c *Comm) {
		if c.Rank() == 1 {
			c.Recv(0, 3) // nobody sends
		}
	})
	if err == nil || !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("expected a watchdog diagnostic, got: %v", err)
	}
}

// TestBarrierSkippedByPeerTripsWatchdog: a barrier one rank enters and its
// peers skip is a deadlock like a receive nobody sends to, so the watchdog
// must end the run with a diagnostic naming the waiting rank — on every
// fabric, and whether the waiter is the barrier's root or a leaf.
func TestBarrierSkippedByPeerTripsWatchdog(t *testing.T) {
	opts := Options{Watchdog: 50 * time.Millisecond}
	fabrics := []struct {
		name   string
		worlds func(t *testing.T) []*World
	}{
		{"channel", func(*testing.T) []*World { return []*World{NewWorldOpts(2, opts)} }},
		{"tcp", func(t *testing.T) []*World { return []*World{newTCPWorldT(t, 2, opts)} }},
		{"remote-pair", func(t *testing.T) []*World {
			w0, w1 := twoProcessWorlds(t, opts)
			return []*World{w0, w1}
		}},
	}
	for _, f := range fabrics {
		for waiter := 0; waiter < 2; waiter++ {
			t.Run(fmt.Sprintf("%s/rank%d", f.name, waiter), func(t *testing.T) {
				worlds := f.worlds(t)
				errs := make(chan error, len(worlds))
				for _, w := range worlds {
					go func() {
						errs <- w.RunE(func(c *Comm) {
							if c.Rank() == waiter {
								c.Barrier()
							}
						})
					}()
				}
				var got []error
				for range worlds {
					select {
					case err := <-errs:
						if err != nil {
							got = append(got, err)
						}
					case <-time.After(10 * time.Second):
						t.Fatal("RunE still blocked 200 watchdog periods after a peer skipped the barrier")
					}
				}
				if len(got) != 1 {
					t.Fatalf("want exactly the waiter's world to fail, got %v", got)
				}
				for _, want := range []string{"watchdog:", fmt.Sprintf("rank %d blocked in Barrier", waiter)} {
					if !strings.Contains(got[0].Error(), want) {
						t.Errorf("diagnostic %q missing %q", got[0], want)
					}
				}
			})
		}
	}
}

// TestTCPSurvivesLinkDropsUnderLoad hammers a 3-rank world with
// repeated traffic while the test keeps severing connections: the
// retained-frame resend plus receiver dedup must keep every run
// completing with bit-identical stats.
func TestTCPSurvivesLinkDropsUnderLoad(t *testing.T) {
	const size = 3
	opts := Options{Watchdog: 10 * time.Second}
	ch := NewWorldOpts(size, opts)
	if err := ch.RunE(ringTraffic); err != nil {
		t.Fatal(err)
	}
	want := ch.Stats()

	mesh, err := NewTCPMesh(TCPConfig{Size: size, PeerWait: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorldTransport(size, opts, mesh)
	t.Cleanup(func() { w.Close() })

	stop := make(chan struct{})
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(3 * time.Millisecond):
			}
			mesh.dropLink(i%size, (i+1)%size)
		}
	}()
	for run := 0; run < 5; run++ {
		if run > 0 {
			w.Reset(opts)
		}
		if err := w.RunE(ringTraffic); err != nil {
			t.Fatalf("run %d under link drops: %v", run, err)
		}
		if got := w.Stats(); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d stats diverged under link drops:\n got %+v\nwant %+v", run, got, want)
		}
	}
	close(stop)
	<-chaosDone
}

// twoProcessWorlds builds a 2-rank mesh split across two in-process
// "processes" (one mesh + remote world per rank) — the multi-process
// deployment's protocol exercised without spawning binaries.
func twoProcessWorlds(t *testing.T, opts Options) (*World, *World) {
	t.Helper()
	addrs := map[int]string{}
	m0, err := NewTCPMesh(TCPConfig{Size: 2, Local: []int{0}, Addrs: addrs, PeerWait: 10 * time.Second, Heartbeat: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	m1, err := NewTCPMesh(TCPConfig{Size: 2, Local: []int{1}, Addrs: addrs, PeerWait: 10 * time.Second, Heartbeat: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	addrs[0] = m0.Addr()
	addrs[1] = m1.Addr()
	w0 := NewRemoteWorld(2, []int{0}, opts, m0)
	w1 := NewRemoteWorld(2, []int{1}, opts, m1)
	t.Cleanup(func() { w0.Close(); w1.Close() })
	return w0, w1
}

// TestTCPRemoteWorldPair runs a send/recv/barrier/collective pattern
// split across two remote worlds and checks the merged per-rank stats
// equal a single-process channel run of the same pattern.
func TestTCPRemoteWorldPair(t *testing.T) {
	opts := Options{Watchdog: 5 * time.Second}
	pattern := func(c *Comm) {
		peer := 1 - c.Rank()
		for i := 0; i < 3; i++ {
			c.Send(peer, 7, []float64{float64(c.Rank()), float64(i)})
		}
		for i := 0; i < 3; i++ {
			got := c.Recv(peer, 7)
			if len(got) != 2 || got[0] != float64(peer) || got[1] != float64(i) {
				panic("payload mismatch")
			}
		}
		c.Barrier()
		c.Send(peer, 8, []float64{float64(c.Rank() + 1)})
		if got := c.Recv(peer, 8); got[0] != float64(peer+1) {
			panic("post-barrier exchange mismatch")
		}
		c.Barrier()
	}

	ch := NewWorldOpts(2, opts)
	if err := ch.RunE(pattern); err != nil {
		t.Fatal(err)
	}
	want := ch.Stats()

	w0, w1 := twoProcessWorlds(t, opts)
	errs := make(chan error, 2)
	go func() { errs <- w0.RunE(pattern) }()
	go func() { errs <- w1.RunE(pattern) }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	merged := Stats{PerRank: []RankTraffic{w0.Stats().PerRank[0], w1.Stats().PerRank[1]}}
	for _, rt := range merged.PerRank {
		merged.BlockingSends += rt.BlockingSends
		merged.OverlappedSends += rt.OverlappedSends
		merged.Recvs += rt.Recvs
		merged.ValuesRecvd += rt.ValuesRecvd
		merged.SendRetries += rt.SendRetries
		merged.Messages += rt.BlockingSends + rt.OverlappedSends
		merged.Values += rt.Values
	}
	if !reflect.DeepEqual(merged, want) {
		t.Fatalf("merged two-process stats differ from channel run:\n got %+v\nwant %+v", merged, want)
	}
}

// TestTCPPeerLossSurfacesAsFault pins connection-loss semantics: a peer
// that never comes back within PeerWait becomes the run's primary
// error (a transport failure), not a watchdog panic or a hang.
func TestTCPPeerLossSurfacesAsFault(t *testing.T) {
	opts := Options{Watchdog: 30 * time.Second}
	addrs := map[int]string{}
	m0, err := NewTCPMesh(TCPConfig{Size: 2, Local: []int{0}, Addrs: addrs, PeerWait: 300 * time.Millisecond, Heartbeat: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	m1, err := NewTCPMesh(TCPConfig{Size: 2, Local: []int{1}, Addrs: addrs, PeerWait: 300 * time.Millisecond, Heartbeat: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	addrs[0] = m0.Addr()
	addrs[1] = m1.Addr()
	w0 := NewRemoteWorld(2, []int{0}, opts, m0)
	t.Cleanup(func() { w0.Close() })

	// Rank 1's process dies immediately and never returns.
	m1.Close()

	err = w0.RunE(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 4, []float64{1})
			c.Recv(1, 4)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "transport failure") {
		t.Fatalf("expected a transport-failure error, got: %v", err)
	}
}

// TestTCPResumeAtConstruction is the relaunch protocol without the
// processes: rank 1's side of a two-mesh link dies after a checkpoint and
// is rebuilt from the checkpoint's stream positions alone
// (TCPConfig.Recv/Sent — the literal positions the conversation below
// reaches; nothing is parked, seeded or released after construction). The live peer must resend exactly the suffix rank 1 never
// consumed, and the send rank 1 regenerates must be suppressed, not
// duplicated.
func TestTCPResumeAtConstruction(t *testing.T) {
	opts := Options{Watchdog: 5 * time.Second}
	w0, w1 := twoProcessWorlds(t, opts)
	both := func(fn func(c *Comm)) { // on w0 and whichever world is rank 1 now
		t.Helper()
		errs := make(chan error, 2)
		go func() { errs <- w0.RunE(fn) }()
		go func() { errs <- w1.RunE(fn) }()
		for i := 0; i < 2; i++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	}
	recvWant := func(c *Comm, src, tag int, want float64) {
		if got := c.Recv(src, tag)[0]; got != want {
			panic(fmt.Sprintf("rank %d: stream (%d,%d) delivered %v, want %v", c.Rank(), src, tag, got, want))
		}
	}

	// Rank 0 sends five messages of which rank 1 consumes two; rank 1 sends
	// two, both consumed. That is the checkpoint.
	both(func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 5; i++ {
				c.Send(1, 3, []float64{float64(i)})
			}
			recvWant(c, 1, 4, 0)
			recvWant(c, 1, 4, 1)
		} else {
			recvWant(c, 0, 3, 0)
			recvWant(c, 0, 3, 1)
			c.Send(0, 4, []float64{0})
			c.Send(0, 4, []float64{1})
		}
		c.FlushWire()
	})
	recv := []StreamPos{{Src: 0, Tag: 3, Count: 2}}
	sent := []StreamPos{{Src: 0, Tag: 4, Count: 2}}
	// Past the checkpoint rank 1 gets one more send out, then dies.
	both(func(c *Comm) {
		if c.Rank() == 0 {
			recvWant(c, 1, 4, 2)
		} else {
			c.Send(0, 4, []float64{2})
			c.FlushWire()
		}
	})
	addr := w1.wire.(*TCPMesh).Addr()
	w1.Close()

	m1, err := NewTCPMesh(TCPConfig{
		Size: 2, Local: []int{1}, Listen: addr, Addrs: map[int]string{0: w0.wire.(*TCPMesh).Addr(), 1: addr},
		PeerWait: 10 * time.Second, Heartbeat: 10 * time.Millisecond,
		Recv: recv, Sent: sent,
	})
	if err != nil {
		t.Fatal(err)
	}
	w1 = NewRemoteWorld(2, []int{1}, opts, m1)
	t.Cleanup(func() { w1.Close() })
	both(func(c *Comm) {
		if c.Rank() == 0 {
			recvWant(c, 1, 4, 3)
		} else {
			for i := 2; i < 5; i++ {
				recvWant(c, 0, 3, float64(i))
			}
			c.Send(0, 4, []float64{2}) // regenerated: rank 0 already has it
			c.Send(0, 4, []float64{3})
			c.FlushWire()
		}
	})

	ws0, _ := w0.WireStats()
	ws1, _ := w1.WireStats()
	if ws0.Resent != 3 || ws0.Duplicates != 0 {
		t.Errorf("live peer: resent %d frames (want the 3 unconsumed), %d duplicates (want 0)", ws0.Resent, ws0.Duplicates)
	}
	if ws1.Suppressed != 1 || ws1.Duplicates != 0 || ws1.FramesRecvd != 3 {
		t.Errorf("rebuilt side: suppressed %d (want the 1 regenerated send), %d duplicates (want 0), %d frames received (want 3)", ws1.Suppressed, ws1.Duplicates, ws1.FramesRecvd)
	}

	if _, err := NewTCPMesh(TCPConfig{Size: 2, Recv: recv}); err == nil {
		t.Error("resume positions on a mesh hosting every rank were accepted")
	}
}

// TestTCPWireStatsCoverObservedFrames: a rank that has received a message
// must find that message's frame in WireStats. The send counters used to
// be bumped after the socket write returned, so a fast receiver could
// read them one frame short (seen as a flaky frame count in the wire
// benchmark). One message per iteration, checked by its receiver the
// moment Recv returns, many iterations.
func TestTCPWireStatsCoverObservedFrames(t *testing.T) {
	const iters = 3000
	w := newTCPWorldT(t, 2, Options{Watchdog: 10 * time.Second})
	err := w.RunE(func(c *Comm) {
		for i := 1; i <= iters; i++ {
			// Ping-pong, so frame i is the only one in flight and exactly i
			// data frames have been sent when its receiver looks.
			if c.Rank() == (i & 1) {
				c.Send(1-c.Rank(), 0, []float64{float64(i)})
				continue
			}
			c.Recv(1-c.Rank(), 0)
			ws, _ := w.WireStats()
			if ws.FramesSent < int64(i) || ws.Batches < int64(i) || ws.BytesSent == 0 {
				// Aborts the world at once; RunE reports it.
				panic(fmt.Sprintf("after receiving message %d: WireStats %+v miss its frame", i, ws))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// dropLink forcibly closes the connection carrying src→dst traffic, as
// if the network dropped it; both endpoints observe the loss and run
// the reconnect protocol.
func (m *TCPMesh) dropLink(src, dst int) {
	id := linkID{src, dst}
	m.mu.Lock()
	l := m.outs[id]
	il := m.ins[id]
	m.mu.Unlock()
	if l != nil {
		l.mu.Lock()
		if l.conn != nil {
			l.conn.Close()
		}
		l.mu.Unlock()
	}
	if il != nil {
		il.mu.Lock()
		if il.conn != nil {
			il.conn.Close()
		}
		il.mu.Unlock()
	}
}
