package mpi

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCPConfig describes one process's view of a TCP mesh.
//
// A mesh is one listener per process plus one dedicated connection per
// directed link (src, dst) with traffic, dialed lazily by the sending
// side. All-local configs (Local == nil, Addrs == nil) carry every rank
// of a single process over real loopback sockets — the wire-backed
// drop-in for the channel fabric. Multi-process configs host a rank
// subset and use Addrs as the rendezvous: rank → address of the
// process hosting it (cmd/tilerankd writes these from a shared
// rendezvous file).
type TCPConfig struct {
	// Size is the global world size.
	Size int
	// Local lists the ranks hosted by this process; nil means all.
	Local []int
	// Listen is this process's listen address; "" means 127.0.0.1:0.
	Listen string
	// Addrs maps every rank to the listen address of its hosting
	// process. nil means all ranks are local (loopback via own listener).
	Addrs map[int]string
	// Heartbeat is the liveness beacon interval for multi-process
	// meshes (the cross-process watchdog signal). Zero means 50ms.
	// Ignored when all ranks are local.
	Heartbeat time.Duration
	// PeerWait bounds how long a link endpoint waits for its peer to
	// appear (first connect) or come back (reconnect) before the loss
	// is surfaced as the run's primary fault. Zero means 10s.
	PeerWait time.Duration
	// DialDelay sleeps before every dial attempt — a test hook for
	// injecting slow reconnects against the watchdog. Zero disables.
	DialDelay time.Duration
	// Recv and Sent resume a relaunched single-rank process (len(Local)
	// == 1) mid-conversation: its consumed and sent stream positions at its
	// checkpoint (exec.Program.StreamPositions), seeded into the resume
	// protocol before anything handshakes — peers resend exactly what it
	// never consumed, and its regenerated sends are numbered as the
	// originals were, so suppression and dedup remove every duplicate.
	Recv, Sent []StreamPos
}

// StreamPos is one (src, tag) stream position of a resuming rank
// (TCPConfig.Recv/Sent). For an inbound stream Src is the sending rank and
// Count the messages consumed; for an outbound stream Src is the
// destination rank and Count the messages sent.
type StreamPos struct {
	Src   int
	Tag   int
	Count uint64
}

// WireStats are the TCP mesh's transport-level counters. They are kept
// out of Stats deliberately: Stats must compare bit-identically across
// transports, while these counters only exist when real bytes move.
type WireStats struct {
	// The three send counters are bumped before the socket write, so a
	// receiver that already holds a frame never reads stats that miss it.
	FramesSent  int64 // data frames handed to a socket write
	BytesSent   int64 // data bytes of those frames (as encoded)
	Batches     int64 // coalesced writev batches (one net.Buffers write each)
	FramesRecvd int64 // data frames accepted into mailboxes
	Suppressed  int64 // regenerated frames skipped at the sender (resume protocol)
	Duplicates  int64 // frames dropped at the receiver as already accepted
	Resent      int64 // retained frames retransmitted after a reconnect
	Reconnects  int64 // connections re-established after a loss
	Heartbeats  int64 // heartbeat frames received
	StaleFrames int64 // frames of a dead epoch: dropped from a sender's queue by Reset, or on arrival
}

type linkID struct{ src, dst int }

// wireFrame is one encoded frame staged for a link's writer, which holds
// it until due (zero for heartbeats: at once). acct is the
// exactly-once settlement flag for the mesh's in-custody counter on
// cross-process frames (nil for protocol frames and in-process data,
// which settle at the receiver).
type wireFrame struct {
	kind byte
	tag  int
	seq  uint64
	due  time.Time
	acct *atomic.Bool
	buf  []byte
}

// TCPMesh is the Transport that moves every message over TCP with
// length-prefixed frames. Each directed link with traffic gets one
// connection (dialed by the sender) and one writer goroutine, which holds
// each frame until due and writes whatever is due in one net.Buffers
// writev, coalescing send bursts; readers hand frames to World.arrive.
// Senders retain sequence-numbered frames, and a reconnect's handshake
// (hello → welcome with the receiver's per-stream accepted counts) resends
// what the peer missed and suppresses what it has, so a relaunched rank
// process resumes mid-conversation. A peer missing past PeerWait fails the
// run (World.Fail).
type TCPMesh struct {
	cfg TCPConfig
	w   *World
	ln  net.Listener
	lad string // actual listen address
	hb  time.Duration

	localSet []bool
	isRemote bool

	mu     sync.Mutex
	outs   map[linkID]*outLink
	ins    map[linkID]*inLink
	closed atomic.Bool
	done   chan struct{}

	wg sync.WaitGroup

	// epoch stamps data frames; Reset bumps it, and readers drop every
	// frame stamped with an older one.
	epoch atomic.Uint32

	// staged counts frames in the mesh's custody: held until due, queued,
	// mid-write, or (in-process) inside a socket buffer. Busy() reports
	// them to the watchdog as wire activity.
	staged atomic.Int64
	// down counts link endpoints currently connecting, reconnecting, or
	// awaiting a peer's return — wire activity, never a stall.
	down atomic.Int64
	// beats counts the progress bumps peers' beacons caused here. The
	// beacon advertises progress net of them: otherwise two wedged
	// processes keep each other alive forever, each answering the bump the
	// other's last beacon caused, and no cross-process watchdog ever fires.
	beats atomic.Uint64

	// Wire statistics. Send-side counters are bumped by the owning
	// link's writer goroutine, receive-side by the mesh's inbound frame
	// handlers; nothing outside the transport may mutate them.
	sFramesSent  atomic.Int64
	sBytesSent   atomic.Int64
	sBatches     atomic.Int64
	sFramesRecvd atomic.Int64
	sSuppressed  atomic.Int64
	sDuplicates  atomic.Int64
	sResent      atomic.Int64
	sReconnects  atomic.Int64
	sHeartbeats  atomic.Int64
	sStale       atomic.Int64
}

// NewTCPMesh opens the process's listener and prepares the mesh; link
// connections are dialed lazily once a World is attached and traffic
// (or the heartbeat loop) needs them.
func NewTCPMesh(cfg TCPConfig) (*TCPMesh, error) {
	if cfg.Size <= 0 {
		return nil, fmt.Errorf("mpi: tcp mesh size %d must be positive", cfg.Size)
	}
	m := &TCPMesh{
		cfg:  cfg,
		hb:   cfg.Heartbeat,
		outs: map[linkID]*outLink{},
		ins:  map[linkID]*inLink{},
		done: make(chan struct{}),
	}
	if m.hb <= 0 {
		m.hb = 50 * time.Millisecond
	}
	var err error
	if m.localSet, err = rankMask(cfg.Size, cfg.Local); err != nil {
		return nil, err
	}
	m.isRemote = cfg.Local != nil
	resumed := len(cfg.Recv)+len(cfg.Sent) > 0
	if resumed && len(cfg.Local) != 1 {
		return nil, fmt.Errorf("mpi: tcp mesh resume positions describe one rank, config hosts %d", len(cfg.Local))
	}
	addr := cfg.Listen
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("mpi: tcp mesh listen: %w", err)
	}
	m.ln = ln
	m.lad = ln.Addr().String()
	if resumed {
		// The cores are seeded the moment they exist, and nothing
		// handshakes before Attach: no welcome or stamp can see them fresh.
		self := cfg.Local[0]
		for _, p := range cfg.Recv {
			m.in(linkID{p.Src, self}).proto.SeedAccepted(p.Tag, p.Count)
		}
		for _, p := range cfg.Sent {
			m.out(linkID{self, p.Src}).proto.SeedSent(p.Tag, p.Count)
		}
	}
	return m, nil
}

// NewTCPWorld is NewWorldOpts over a fresh all-local loopback TCP mesh:
// every rank in this process, each message crossing a real socket. The
// caller owns the world's sockets: Close it when done.
func NewTCPWorld(size int, opts Options) (*World, error) {
	m, err := NewTCPMesh(TCPConfig{Size: size})
	if err != nil {
		return nil, err
	}
	return NewWorldTransport(size, opts, m), nil
}

// Addr returns the listener's concrete address (for rendezvous files).
func (m *TCPMesh) Addr() string { return m.lad }

func (m *TCPMesh) isLocalRank(r int) bool { return r >= 0 && r < len(m.localSet) && m.localSet[r] }

func (m *TCPMesh) peerWait() time.Duration {
	if m.cfg.PeerWait > 0 {
		return m.cfg.PeerWait
	}
	return 10 * time.Second
}

func (m *TCPMesh) addrOf(rank int) string {
	if m.cfg.Addrs != nil {
		if a, ok := m.cfg.Addrs[rank]; ok {
			return a
		}
	}
	return m.lad
}

// Attach binds the mesh to its world and starts the accept loop, the
// writers of links seeded at construction and, for multi-process meshes,
// the heartbeat beacon.
func (m *TCPMesh) Attach(w *World) {
	m.mu.Lock()
	m.w = w
	for _, l := range m.outs {
		m.wg.Add(1)
		go l.run()
	}
	m.mu.Unlock()
	m.wg.Add(1)
	go m.acceptLoop()
	if m.isRemote {
		m.wg.Add(1)
		go m.heartbeatLoop()
	}
}

func (m *TCPMesh) fail(err error) {
	if m.closed.Load() || err == nil {
		return
	}
	m.w.Fail(err)
}

// WireStats snapshots the transport counters.
func (m *TCPMesh) WireStats() WireStats {
	return WireStats{
		FramesSent:  m.sFramesSent.Load(),
		BytesSent:   m.sBytesSent.Load(),
		Batches:     m.sBatches.Load(),
		FramesRecvd: m.sFramesRecvd.Load(),
		Suppressed:  m.sSuppressed.Load(),
		Duplicates:  m.sDuplicates.Load(),
		Resent:      m.sResent.Load(),
		Reconnects:  m.sReconnects.Load(),
		Heartbeats:  m.sHeartbeats.Load(),
		StaleFrames: m.sStale.Load(),
	}
}

// WireStats returns the world's transport counters when its transport
// is a TCP mesh; ok is false on the channel fabric.
func (w *World) WireStats() (WireStats, bool) {
	if m, ok := w.wire.(*TCPMesh); ok {
		return m.WireStats(), true
	}
	return WireStats{}, false
}

// ---------------------------------------------------------------------
// Sender side.

// outLink is the sending endpoint of one directed link: a frame queue,
// a writer goroutine, and the sender half of the resume protocol
// (sequence stamping, retained archive, suppression) — all protocol
// decisions are delegated to the SendCore, the same pure core
// verify/wirecheck certifies exhaustively.
type outLink struct {
	m    *TCPMesh
	id   linkID
	addr string

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []wireFrame
	pending  int // frames taken by the writer, not yet written out
	conn     net.Conn
	connDead bool
	everUp   bool
	proto    *SendCore // resume-protocol sender state, guarded by mu
	// slab holds the archived frames proto's Retained payloads point to;
	// entries never change once appended, so a pointer into an outgrown
	// array stays good. Reset empties it and keeps its capacity.
	slab []wireFrame

	// The writer goroutine's scratch, reused batch after batch.
	batch []wireFrame
	bufs  net.Buffers
	accts []*atomic.Bool // custody flags to settle once the write succeeds
}

// out returns (creating if needed) the link src→dst. Its writer starts
// with it, or at Attach for a link created before the mesh has a world.
func (m *TCPMesh) out(id linkID) *outLink {
	m.mu.Lock()
	defer m.mu.Unlock()
	l := m.outs[id]
	if l == nil {
		l = &outLink{m: m, id: id, proto: NewSendCore(ProtocolRules{})}
		l.cond = sync.NewCond(&l.mu)
		m.outs[id] = l
		if m.w != nil {
			m.wg.Add(1)
			go l.run()
		}
	}
	return l
}

// outLinks snapshots the links sending from rank src (every link when src
// is negative), so callers can work on them without holding the mesh lock.
func (m *TCPMesh) outLinks(src int) []*outLink {
	m.mu.Lock()
	defer m.mu.Unlock()
	links := make([]*outLink, 0, len(m.outs))
	for id, l := range m.outs {
		if src < 0 || id.src == src {
			links = append(links, l)
		}
	}
	return links
}

// Deliver encodes one message as a data frame and queues it on its
// link, where the writer holds it until due. Eager: it never blocks on
// the network, so the channel fabric's no-deadlock send semantics carry
// over unchanged.
func (m *TCPMesh) Deliver(src, dst, tag int, data []float64, due time.Time) {
	l := m.out(linkID{src, dst})
	l.mu.Lock()
	seq := l.proto.Stamp(tag)
	fr := wireFrame{
		kind: frameData,
		tag:  tag,
		seq:  seq,
		due:  due,
		buf:  encodeDataFrame(m.epoch.Load(), tag, seq, data),
	}
	if !m.isLocalRank(dst) {
		fr.acct = new(atomic.Bool)
	}
	m.staged.Add(1)
	l.queue = append(l.queue, fr)
	l.mu.Unlock()
	l.cond.Broadcast()
}

// enqueue queues a heartbeat frame on the link.
func (l *outLink) enqueue(fr wireFrame) {
	l.mu.Lock()
	l.queue = append(l.queue, fr)
	l.mu.Unlock()
	l.cond.Broadcast()
}

// settle marks one cross-process frame as out of mesh custody, exactly
// once no matter how many transmissions (first write, resend,
// suppression) race to report it.
func (m *TCPMesh) settle(acct *atomic.Bool) {
	if acct != nil && acct.CompareAndSwap(false, true) {
		m.staged.Add(-1)
	}
}

func (l *outLink) run() {
	defer l.m.wg.Done()
	l.addr = l.m.addrOf(l.id.dst) // Addrs is complete once a world is attached
	for {
		conn := l.ensureConn()
		if conn == nil {
			return // mesh closed, or peer declared lost (run already failed)
		}
		if !l.takeBatch() {
			return
		}
		if len(l.batch) == 0 {
			continue // woken by a dead connection: reconnect
		}
		l.writeBatch(conn)
	}
}

// takeBatch blocks until frames are due (or the connection died, or the
// mesh closed) and moves every frame due so far into l.batch — the
// coalescing step: one wake drains one burst into one writev. A frame not
// yet due holds the frames behind it, which keeps the link in order: due
// times never decrease per sending rank. It reports false once the mesh
// has closed.
func (l *outLink) takeBatch() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.batch = l.batch[:0]
	var hold *time.Timer // wakes the writer when the head frame is due
	n := 0
	for {
		if l.m.closed.Load() {
			l.closeConnLocked()
			return false
		}
		now := time.Now()
		for n < len(l.queue) && !l.queue[n].due.After(now) {
			n++
		}
		if n > 0 || l.connDead {
			break
		}
		if len(l.queue) > 0 && hold == nil {
			hold = wakeAfter(l.queue[0].due.Sub(now), &l.mu, l.cond)
			defer hold.Stop()
		}
		l.cond.Wait()
	}
	if n == 0 {
		return true // woken by a dead connection: reconnect
	}
	l.batch = append(l.batch, l.queue[:n]...)
	rest := copy(l.queue, l.queue[n:])
	clear(l.queue[rest:])
	l.queue = l.queue[:rest]
	l.pending = n
	for _, fr := range l.batch {
		if fr.kind == frameData {
			l.slab = append(l.slab, fr)
			l.proto.Retain(fr.tag, fr.seq, &l.slab[len(l.slab)-1])
		}
	}
	return true
}

// writeBatch filters suppressed frames out of l.batch and writes the rest
// as one vectored send. On failure the connection is marked dead; the
// frames are already retained, so the reconnect handshake redelivers
// whatever the peer is missing.
func (l *outLink) writeBatch(conn net.Conn) {
	bufs, accts := l.bufs[:0], l.accts[:0]
	var frames, bytes int64
	l.mu.Lock()
	for _, fr := range l.batch {
		if fr.kind == frameData {
			if !l.proto.ShouldTransmit(fr.tag, fr.seq) {
				l.m.sSuppressed.Add(1)
				l.m.settle(fr.acct)
				continue
			}
			frames++
			bytes += int64(len(fr.buf))
		}
		if fr.acct != nil {
			accts = append(accts, fr.acct)
		}
		bufs = append(bufs, fr.buf)
	}
	l.mu.Unlock()
	var err error
	if len(bufs) > 0 {
		// Counted before the write: the moment a frame is on the socket its
		// receiver can act on it and read WireStats, and the frame must
		// already be in them.
		l.m.sBatches.Add(1)
		l.m.sFramesSent.Add(frames)
		l.m.sBytesSent.Add(bytes)
		l.bufs = bufs // the write consumes l.bufs; bufs keeps the array
		if _, err = l.bufs.WriteTo(conn); err == nil {
			for _, a := range accts {
				l.m.settle(a)
			}
		}
	}
	// Keep the grown scratch, but none of the frames it pointed at.
	clear(bufs)
	clear(accts)
	clear(l.batch)
	l.bufs, l.accts = bufs[:0], accts
	l.mu.Lock()
	if err != nil && l.conn == conn {
		l.connDead = true
	}
	l.pending = 0
	l.mu.Unlock()
	l.cond.Broadcast()
}

// ensureConn returns a healthy connection, running the dial + hello →
// welcome handshake (and retained-frame resend) when there is none.
// While it works the mesh reports Busy, so a slow reconnect is wire
// activity to the watchdog, never a two-strike stall. A peer missing
// past PeerWait fails the run.
func (l *outLink) ensureConn() net.Conn {
	l.mu.Lock()
	if l.conn != nil && !l.connDead {
		c := l.conn
		l.mu.Unlock()
		return c
	}
	reconnect := l.everUp
	l.mu.Unlock()

	l.m.down.Add(1)
	defer l.m.down.Add(-1)
	deadline := time.Now().Add(l.m.peerWait())
	backoff := time.Millisecond
	var lastErr error
	for {
		if l.m.closed.Load() {
			l.closeConn()
			return nil
		}
		if d := l.m.cfg.DialDelay; d > 0 {
			time.Sleep(d)
		}
		conn, err := l.dialOnce()
		if err == nil {
			l.mu.Lock()
			if l.conn != nil {
				l.conn.Close()
			}
			l.conn = conn
			l.connDead = false
			l.everUp = true
			l.mu.Unlock()
			if reconnect {
				l.m.sReconnects.Add(1)
			}
			l.m.wg.Add(1)
			go l.monitor(conn)
			if !l.resendRetained(conn) {
				continue // resend failed; dial again
			}
			return conn
		}
		lastErr = err
		if time.Now().After(deadline) {
			l.m.fail(fmt.Errorf("mpi: rank %d lost rank %d (%s unreachable for %v): %w",
				l.id.src, l.id.dst, l.addr, l.m.peerWait(), lastErr))
			return nil
		}
		select {
		case <-l.m.done:
			l.closeConn()
			return nil
		case <-time.After(backoff):
		}
		if backoff < 100*time.Millisecond {
			backoff *= 2
		}
	}
}

// dialOnce runs one connection attempt: dial, hello, welcome.
func (l *outLink) dialOnce() (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", l.addr, time.Second)
	if err != nil {
		return nil, err
	}
	hsDeadline := time.Now().Add(l.m.peerWait())
	_ = conn.SetDeadline(hsDeadline)
	ep := l.m.epoch.Load()
	if _, err := conn.Write(encodeHelloFrame(l.id.src, l.id.dst)); err != nil {
		conn.Close()
		return nil, err
	}
	body, err := readFrame(conn, nil)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if body[0] != frameWelcome {
		conn.Close()
		return nil, fmt.Errorf("mpi: link %d→%d: unexpected frame kind %d in handshake", l.id.src, l.id.dst, body[0])
	}
	counts, err := decodeWelcomeFrame(body)
	if err != nil {
		conn.Close()
		return nil, err
	}
	_ = conn.SetDeadline(time.Time{})
	l.mu.Lock()
	// A welcome answered across a Reset may count the dead run's frames;
	// the reset core keeps no peer counts then, as a fresh one has none.
	if l.m.epoch.Load() == ep {
		l.proto.ObserveWelcome(counts)
	}
	l.mu.Unlock()
	return conn, nil
}

// resendRetained redelivers every retained frame the welcome says the
// peer has not accepted, in stream order. Every retained frame is then
// out of custody: the peer holds it, or the kernel has it to deliver.
func (l *outLink) resendRetained(conn net.Conn) bool {
	l.mu.Lock()
	plan := l.proto.ResendPlan()
	resend := make(net.Buffers, 0, len(plan))
	for _, fr := range plan {
		resend = append(resend, fr.Payload.(*wireFrame).buf)
	}
	l.mu.Unlock()
	if len(resend) > 0 {
		if _, err := resend.WriteTo(conn); err != nil {
			l.mu.Lock()
			if l.conn == conn {
				l.connDead = true
			}
			l.mu.Unlock()
			return false
		}
		l.m.sResent.Add(int64(len(plan)))
	}
	l.mu.Lock()
	for _, fr := range l.proto.RetainedFrames() {
		l.m.settle(fr.Payload.(*wireFrame).acct)
	}
	l.mu.Unlock()
	return true
}

// monitor watches a dialed connection for death: nothing arrives on it
// after the welcome, so any read completion means the peer closed or
// the network dropped it — wake the writer to reconnect even if the
// queue is empty (the accepter side is waiting for us to come back).
func (l *outLink) monitor(conn net.Conn) {
	defer l.m.wg.Done()
	one := make([]byte, 1)
	_, _ = conn.Read(one)
	l.mu.Lock()
	if l.conn == conn {
		l.connDead = true
	}
	l.mu.Unlock()
	l.cond.Broadcast()
}

func (l *outLink) closeConn() {
	l.mu.Lock()
	l.closeConnLocked()
	l.mu.Unlock()
}

func (l *outLink) closeConnLocked() {
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
	l.connDead = false
}

// flushable reports whether any queued frame needs delivery guarantees.
// Heartbeats don't: they are regenerated every tick, so one parked on a
// link whose peer is gone must never hold a flush hostage.
func flushable(queue []wireFrame) bool {
	for _, fr := range queue {
		if fr.kind != frameHeartbeat {
			return true
		}
	}
	return false
}

// Flush blocks until every frame rank src has delivered is out of the
// mesh's buffers: queue drained and the current batch written. A dead
// connection does not block it — bytes already written are delivered by
// the kernel regardless of what this process does next, and frames that
// failed mid-write are retained and resent by the reconnect protocol.
// Flush promises "out of our buffers", not end-to-end receipt; receipt
// is what the per-stream sequence counts settle on reconnect.
func (m *TCPMesh) Flush(src int) {
	for _, l := range m.outLinks(src) {
		l.mu.Lock()
		for (flushable(l.queue) || l.pending > 0) && !m.closed.Load() {
			l.cond.Wait()
		}
		l.mu.Unlock()
	}
}

// Busy reports frames in mesh custody or links mid-(re)connect.
func (m *TCPMesh) Busy() bool {
	return m.staged.Load() > 0 || m.down.Load() > 0
}

// ---------------------------------------------------------------------
// Receiver side.

// inLink is the receiving endpoint of one directed link: the receiver
// half of the resume protocol (dedup watermarks, gap detection, welcome
// counts — all decisions delegated to the RecvCore verify/wirecheck
// certifies), the heartbeat liveness core, and the currently adopted
// connection.
type inLink struct {
	m  *TCPMesh
	id linkID

	mu        sync.Mutex
	proto     *RecvCore // resume-protocol receiver state, guarded by mu
	hb        BeatCore  // heartbeat liveness state, guarded by mu
	conn      net.Conn
	drained   chan struct{} // closed when conn's reader has returned
	downLink  bool
	downTimer *time.Timer
}

func (m *TCPMesh) in(id linkID) *inLink {
	m.mu.Lock()
	defer m.mu.Unlock()
	il := m.ins[id]
	if il == nil {
		il = &inLink{m: m, id: id, proto: NewRecvCore(ProtocolRules{})}
		m.ins[id] = il
	}
	return il
}

func (m *TCPMesh) acceptLoop() {
	defer m.wg.Done()
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			return
		}
		m.wg.Add(1)
		go m.serveConn(conn)
	}
}

// serveConn handshakes one inbound connection (hello → welcome) and
// adopts it as its link's active connection, then reads frames until it
// dies. The connection it replaces (the peer reconnected) is read to its
// end first: its sender closed it or died, and a relaunched sender keeps no
// archive of the frames still buffered there, so the welcome must count
// them.
func (m *TCPMesh) serveConn(conn net.Conn) {
	defer m.wg.Done()
	defer conn.Close()
	drained := make(chan struct{})
	defer close(drained)
	_ = conn.SetReadDeadline(time.Now().Add(m.peerWait()))
	body, err := readFrame(conn, nil)
	if err != nil || body[0] != frameHello {
		return
	}
	src, dst, err := decodeHelloFrame(body)
	if err != nil || src < 0 || src >= m.cfg.Size || !m.isLocalRank(dst) {
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	il := m.in(linkID{src, dst})
	il.mu.Lock()
	if old := il.conn; old != nil {
		prev := il.drained
		il.mu.Unlock()
		_ = old.SetReadDeadline(time.Now().Add(m.peerWait()))
		<-prev
		il.mu.Lock()
	}
	if m.closed.Load() {
		// Close has swept, or is sweeping, the links' connections: one
		// installed now would outlive it.
		il.mu.Unlock()
		return
	}
	welcome := encodeWelcomeFrame(il.proto.WelcomeCounts())
	old := il.conn
	il.conn, il.drained = conn, drained
	if il.downLink {
		il.downLink = false
		m.down.Add(-1)
		if il.downTimer != nil {
			il.downTimer.Stop()
			il.downTimer = nil
		}
	}
	il.mu.Unlock()
	if old != nil {
		old.Close()
	}
	if _, err := conn.Write(welcome); err != nil {
		m.connLost(il, conn)
		return
	}
	m.readLoop(il, conn)
}

// readLoop reads the frames of an adopted inbound connection until it dies.
// The hello was read unbuffered and the peer sends nothing but frames after
// the welcome, so one buffer per connection takes a burst of frames off the
// socket in a few reads instead of two per frame, and every frame body is
// read into one frame buffer the loop owns: a data frame costs the receiver
// only the payload it keeps.
func (m *TCPMesh) readLoop(il *inLink, conn net.Conn) {
	r := bufio.NewReader(conn)
	var buf []byte
	for {
		body, err := readFrame(r, buf)
		if err != nil {
			m.connLost(il, conn)
			return
		}
		buf = body
		switch body[0] {
		case frameData:
			f, err := decodeDataFrame(body)
			if err != nil {
				m.fail(fmt.Errorf("mpi: link %d→%d: %w", il.id.src, il.id.dst, err))
				m.connLost(il, conn)
				return
			}
			m.acceptData(il, f)
		case frameHeartbeat:
			prog, busy, err := decodeHeartbeatFrame(body)
			if err != nil {
				continue
			}
			m.sHeartbeats.Add(1)
			il.mu.Lock()
			alive := il.hb.Observe(prog, busy)
			il.mu.Unlock()
			// A peer whose progress moved, or that reports live wire or
			// compute activity, is alive: that is watchdog progress here.
			if alive {
				m.beats.Add(1)
				m.w.progress.Add(1)
			}
		}
	}
}

// acceptData applies the dedup/ordering protocol and delivers the frame
// into the destination mailbox. The verdict, the put and the custody
// settle are one critical section of il.mu (wirecheck's atomic delivery),
// which is what Reset's lock barrier relies on.
func (m *TCPMesh) acceptData(il *inLink, f dataFrame) {
	il.mu.Lock()
	verdict := il.proto.Accept(f.epoch, m.epoch.Load(), f.tag, f.seq)
	if verdict == VerdictAccept {
		m.sFramesRecvd.Add(1)
		// The sender held the frame until it was due.
		m.w.arrive(il.id.src, il.id.dst, f.tag, f.data, time.Now())
		if m.isLocalRank(il.id.src) {
			m.staged.Add(-1)
		}
	}
	expect := il.proto.Accepted(f.tag)
	il.mu.Unlock()
	switch verdict {
	case VerdictStale:
		// A frame from a dead epoch never reaches a mailbox; its custody
		// count went with Reset's zeroing of staged.
		m.sStale.Add(1)
	case VerdictDuplicate:
		m.sDuplicates.Add(1)
	case VerdictGap:
		m.fail(fmt.Errorf("mpi: link %d→%d tag %d: stream gap (got frame %d, expected %d)",
			il.id.src, il.id.dst, f.tag, f.seq, expect))
	}
}

// connLost marks a link's active connection dead and arms the PeerWait
// deadline: if the peer does not reconnect in time, the loss becomes
// the run's primary fault.
func (m *TCPMesh) connLost(il *inLink, conn net.Conn) {
	if m.closed.Load() {
		return
	}
	il.mu.Lock()
	if il.conn != conn || il.downLink {
		il.mu.Unlock()
		return
	}
	il.downLink = true
	m.down.Add(1)
	id := il.id
	il.downTimer = time.AfterFunc(m.peerWait(), func() {
		il.mu.Lock()
		still := il.downLink
		il.mu.Unlock()
		if still && !m.closed.Load() {
			m.fail(fmt.Errorf("mpi: rank %d lost contact with rank %d (no reconnect within %v)",
				id.dst, id.src, m.peerWait()))
		}
	})
	il.mu.Unlock()
}

// ---------------------------------------------------------------------
// Liveness beacons (multi-process only).

// heartbeatLoop periodically beacons this process's progress counter
// and busy state to every peer process, on one designated link each.
// Receivers convert observed liveness into watchdog progress, so a
// remote rank deep in a compute phase never reads as a deadlock — while
// a genuinely wedged cluster (everyone parked, nothing moving) sends
// unchanging, non-busy beacons and the watchdog still fires.
func (m *TCPMesh) heartbeatLoop() {
	defer m.wg.Done()
	t := time.NewTicker(m.hb)
	defer t.Stop()
	var links []*outLink
	for _, dst := range m.beaconTargets() {
		links = append(links, m.out(linkID{m.lowestLocal(), dst}))
	}
	for {
		select {
		case <-m.done:
			return
		case <-t.C:
		}
		w := m.w
		busy := w.blocked.Load() < w.active.Load() || m.staged.Load() > 0
		fr := wireFrame{kind: frameHeartbeat, buf: encodeHeartbeatFrame(w.progress.Load()-m.beats.Load(), busy)}
		for _, l := range links {
			l.enqueue(fr)
		}
	}
}

func (m *TCPMesh) lowestLocal() int {
	for r, ok := range m.localSet {
		if ok {
			return r
		}
	}
	return 0
}

// beaconTargets picks one representative rank per remote process (the
// lowest rank at each distinct address).
func (m *TCPMesh) beaconTargets() []int {
	seen := map[string]bool{}
	var out []int
	for r := 0; r < m.cfg.Size; r++ {
		if m.isLocalRank(r) {
			continue
		}
		a := m.addrOf(r)
		if !seen[a] {
			seen[a] = true
			out = append(out, r)
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Reset and Close.

// Reset returns the mesh's streams to their just-constructed state between
// runs, putting nothing on the wire: it bumps the epoch (readers drop older
// frames), drops the old run's queued frames, takes every inbound link's
// lock once as a barrier (a reader judging a frame under the old epoch
// holds it until it is in the mailbox, acceptData), resets every core and
// zeroes custody. Only all-local meshes support it.
func (m *TCPMesh) Reset() {
	if m.isRemote {
		panic("mpi: Reset on a multi-process TCP mesh is not supported")
	}
	m.epoch.Add(1)
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, l := range m.outs {
		l.mu.Lock()
		m.sStale.Add(int64(len(l.queue)))
		clear(l.queue)
		l.queue = l.queue[:0]
		l.mu.Unlock()
	}
	for _, il := range m.ins {
		il.mu.Lock() // the barrier, and the receive core's reset behind it
		il.proto.ResetEpoch()
		il.mu.Unlock()
	}
	for _, l := range m.outs {
		l.mu.Lock()
		l.proto.ResetEpoch()
		clear(l.slab)
		l.slab = l.slab[:0]
		l.mu.Unlock()
	}
	m.staged.Store(0)
}

// Close tears the mesh down: listener, connections, writer and reader
// goroutines. Idempotent.
func (m *TCPMesh) Close() error {
	if !m.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(m.done)
	m.ln.Close()
	outs := m.outLinks(-1)
	m.mu.Lock()
	ins := make([]*inLink, 0, len(m.ins))
	for _, il := range m.ins {
		ins = append(ins, il)
	}
	m.mu.Unlock()
	for _, l := range outs {
		l.mu.Lock()
		if l.conn != nil {
			l.conn.Close()
		}
		l.mu.Unlock()
		l.cond.Broadcast()
	}
	for _, il := range ins {
		il.mu.Lock()
		if il.conn != nil {
			il.conn.Close()
		}
		if il.downTimer != nil {
			il.downTimer.Stop()
			il.downTimer = nil
		}
		il.mu.Unlock()
	}
	m.wg.Wait()
	return nil
}
