package mpi

import (
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
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

// TestTCPWorldResetBitIdentical: a TCP world reused via Reset — after an
// aborted run whose frames were all still in the mesh's custody — is
// bit-identical to a fresh one, and Reset dropped every one of those
// frames at its sender.
func TestTCPWorldResetBitIdentical(t *testing.T) {
	const size = 4
	opts := Options{Watchdog: 5 * time.Second}

	fresh := newTCPWorldT(t, size, opts)
	if err := fresh.RunE(ringTraffic); err != nil {
		t.Fatal(err)
	}
	want := fresh.Stats()

	// Aborted dirty run: rank 0 pumps large unclaimed messages at its
	// peers, then panics; everyone else leaves immediately. The injected
	// latency holds every frame at its sender until long after the run
	// has died, so all 32 are in custody when Reset comes.
	const held = 32
	reused := newTCPWorldT(t, size, Options{Watchdog: 5 * time.Second, LinkLatency: time.Minute})
	err := reused.RunE(func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < held; i++ {
				c.SendOwned(1+(i%(size-1)), 11, make([]float64, 4096), true)
			}
			panic("injected abort with frames in custody")
		}
	})
	if err == nil {
		t.Fatal("expected the injected abort to surface")
	}

	reused.Reset(opts)
	if ws, _ := reused.WireStats(); ws.StaleFrames != held || ws.FramesSent != 0 {
		t.Fatalf("Reset dropped %d of the %d frames in custody (%d written): %+v", ws.StaleFrames, held, ws.FramesSent, ws)
	}
	if got := reused.Stats(); !reflect.DeepEqual(got, Stats{PerRank: make([]RankTraffic, size)}) {
		t.Fatalf("Reset left non-zero stats: %+v", got)
	}
	if err := reused.RunE(ringTraffic); err != nil {
		t.Fatal(err)
	}
	if got := reused.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("reused TCP world stats differ from fresh:\n got %+v\nwant %+v", got, want)
	}
}

// TestTCPResetRacesLateFrames: a run that dies with frames on every link —
// some written and still being read, some held at their senders — and is
// Reset at once leaves nothing behind. The dying run sends on the very
// streams the next run uses, so a frame of it that a reader put into a
// mailbox after Reset would be claimed by the ring run in place of its own
// message, and ringTraffic checks every payload. Looped: the race is a
// reader that judged a frame before the epoch bump and puts it after.
func TestTCPResetRacesLateFrames(t *testing.T) {
	const size, rounds, held = 4, 10, 4
	opts := Options{Watchdog: 5 * time.Second}
	fresh := newTCPWorldT(t, size, opts)
	if err := fresh.RunE(ringTraffic); err != nil {
		t.Fatal(err)
	}
	want := fresh.Stats()

	w := newTCPWorldT(t, size, opts)
	var stale int64
	for round := 0; round < rounds; round++ {
		// A message costs PerValue per value: an empty one is due at once
		// and goes straight onto the wire, a 1000-value one is held for ten
		// seconds — and holds everything its rank sends after it.
		w.Reset(Options{PerValue: 10 * time.Millisecond})
		err := w.RunE(func(c *Comm) {
			next := (c.Rank() + 1) % size
			for i := 0; i < 8; i++ {
				c.SendOwned(next, 7+i%2, nil, true)
			}
			for i := 0; i < held; i++ {
				c.SendOwned(next, 7, make([]float64, 1000), true)
			}
			if c.Rank() == 0 {
				panic("injected abort with frames in flight")
			}
		})
		if err == nil {
			t.Fatal("expected the injected abort to surface")
		}
		w.Reset(opts)
		ws, _ := w.WireStats()
		if ws.StaleFrames-stale < size*held {
			t.Fatalf("round %d: Reset dropped %d frames, want at least the %d held at their senders", round, ws.StaleFrames-stale, size*held)
		}
		if err := w.RunE(ringTraffic); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got := w.Stats(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: stats after Reset differ from a fresh world's:\n got %+v\nwant %+v", round, got, want)
		}
		ws, _ = w.WireStats()
		stale = ws.StaleFrames
	}
}

// TestTCPResetAfterCleanRunWritesNothing: Reset is an epoch bump and a lock
// barrier, not a round trip — after a clean run it moves no send counter.
func TestTCPResetAfterCleanRunWritesNothing(t *testing.T) {
	const size = 6
	opts := Options{Watchdog: 5 * time.Second}
	w := newTCPWorldT(t, size, opts)
	for run := 0; run < 3; run++ {
		if err := w.RunE(ringTraffic); err != nil {
			t.Fatal(err)
		}
		before, _ := w.WireStats()
		w.Reset(opts)
		after, _ := w.WireStats()
		if after.FramesSent != before.FramesSent || after.BytesSent != before.BytesSent || after.Batches != before.Batches ||
			after.Suppressed != before.Suppressed || after.Resent != before.Resent {
			t.Fatalf("run %d: Reset wrote to the wire:\nbefore %+v\n after %+v", run, before, after)
		}
	}
}

// BenchmarkTCPWorldReset times a warm reset, the one a pooled TCP world
// pays per run: the world's ring run has just finished, so every link it
// used is connected and idle, and only the Reset is timed.
func BenchmarkTCPWorldReset(b *testing.B) {
	w, err := NewTCPWorld(16, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := w.RunE(ringTraffic); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		w.Reset(Options{})
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

// A resend is in WireStats before its last byte is on the wire: the peer
// may consume the frames and read the stats while the write is still in
// progress. Over a net.Pipe the write cannot return until every byte is
// read, so reading all but the last byte leaves it in progress. A resend
// that fails takes its count back.
func TestResendCountedBeforeWrite(t *testing.T) {
	for _, fail := range []bool{false, true} {
		m := &TCPMesh{}
		l := &outLink{m: m, id: linkID{0, 1}, proto: NewSendCore(ProtocolRules{})}
		l.cond = sync.NewCond(&l.mu)
		var size int
		for seq := range uint64(3) {
			buf := encodeDataFrame(0, 3, seq, []float64{float64(seq)})
			l.proto.Retain(3, seq, &wireFrame{kind: frameData, tag: 3, seq: seq, buf: buf})
			size += len(buf)
		}
		local, peer := net.Pipe()
		done := make(chan bool)
		go func() { done <- l.resendRetained(local) }()
		if fail {
			peer.Close()
			if <-done {
				t.Fatal("resend over a closed pipe reported success")
			}
			if got := m.WireStats().Resent; got != 0 {
				t.Errorf("failed resend: Resent = %d, want 0", got)
			}
			continue
		}
		if _, err := io.ReadFull(peer, make([]byte, size-1)); err != nil {
			t.Fatal(err)
		}
		if got := m.WireStats().Resent; got != 3 {
			t.Errorf("write in progress: Resent = %d, want the 3 frames", got)
		}
		if _, err := io.ReadFull(peer, make([]byte, 1)); err != nil {
			t.Fatal(err)
		}
		if !<-done {
			t.Fatal("resend failed")
		}
		if got := m.WireStats().Resent; got != 3 {
			t.Errorf("after the write: Resent = %d, want 3", got)
		}
		local.Close()
		peer.Close()
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

// countingConn counts the Read calls made on a connection.
type countingConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

// TestReadLoopBuffersFrames: a burst of data frames written in one go is
// taken off the connection in a few reads, not a header read and a body
// read per frame; every frame of it reaches its mailbox in order; and the
// reader allocates one object per frame — the payload the receiver keeps —
// beyond a few per connection (its buffers, the stream, and the stream's
// queue growing while the whole burst sits unclaimed).
func TestReadLoopBuffersFrames(t *testing.T) {
	m, err := NewTCPMesh(TCPConfig{Size: 2})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorldTransport(2, Options{}, m)
	defer w.Close()
	const frames, perConn = 512, 32
	var burst []byte
	for seq := uint64(0); seq < frames; seq++ {
		burst = append(burst, encodeDataFrame(0, 3, seq, []float64{float64(seq)})...)
	}
	local, peer := net.Pipe()
	conn := &countingConn{Conn: local}
	go func() {
		peer.Write(burst)
		peer.Close()
	}()
	il := m.in(linkID{0, 1})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m.readLoop(il, conn) // returns at the peer's close
	runtime.ReadMemStats(&after)
	if ws := m.WireStats(); ws.FramesRecvd != frames {
		t.Fatalf("%d of %d data frames accepted: %+v", ws.FramesRecvd, frames, ws)
	}
	if n := conn.reads.Load(); n > frames/8 {
		t.Fatalf("%d reads for a burst of %d frames", n, frames)
	}
	if allocs := after.Mallocs - before.Mallocs; allocs > frames+perConn {
		t.Fatalf("reading %d data frames allocated %d objects, want at most one per frame plus %d", frames, allocs, perConn)
	}
	if err := w.RunE(func(c *Comm) {
		for i := 0; c.Rank() == 1 && i < frames; i++ {
			if got := c.Recv(0, 3); len(got) != 1 || got[0] != float64(i) {
				panic(fmt.Sprintf("frame %d delivered %v", i, got))
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}
