package mpi

import "time"

// Transport is the runtime's wire seam: everything between an issued send
// (traffic counters bumped, due time stamped) and the receiver's mailbox.
// The default channel fabric delivers synchronously in-process; the TCP
// mesh puts real bytes on a socket (see tcp.go) and a process-per-rank
// deployment spans machines with the same interface (cmd/tilerankd).
//
// Contract:
//
//   - Deliver moves one message src→dst, called on the sender the moment
//     the message is issued. Ownership of data transfers through the
//     transport to the receiving mailbox — the pooled zero-copy buffers of
//     SendOwned/IsendOwned flow through unchanged on the channel fabric,
//     and are marshalled once on wire-backed transports.
//   - Due time: no receiver may claim the message before due (a barrier
//     message's due is zero: at once). The channel fabric stamps it on the
//     message, and the mailbox holds the stream head until then; the TCP
//     mesh holds the frame until due, then writes it. Due times never
//     decrease per sending rank, so holding keeps link order.
//   - Per-(src, dst) FIFO: messages delivered on one directed link reach
//     World.arrive in Deliver order. That is all the receive side asks:
//     a mailbox stream is a queue whose head is the only claimable
//     message, so link order is stream order — for user traffic and for
//     the barrier alike, which is nothing but messages on a reserved tag.
//     A transport numbers nothing for the mailbox and may hand it frames
//     before the rank has seeded its consumed counts (a resumed process).
//   - Completion: a transport may return from Deliver before the
//     message reaches the mailbox, but must then report Busy() until it
//     does (or until the frame is irrevocably handed to the OS on a
//     cross-process link) — the deadlock watchdog treats wire activity
//     as progress in flight, never as a stall.
//   - Flush(src) blocks until every frame rank src has delivered is out
//     of the transport's own buffers (in the mailbox in-process, written
//     to the socket cross-process). Checkpointing flushes before taking a
//     snapshot so "sent before the snapshot" is well defined.
//   - Reset returns the transport to its just-constructed state between
//     runs (World.Reset) and is a barrier: once it returns, no frame of the
//     previous run reaches a mailbox — one still in flight is discarded
//     when it arrives.
//   - Close releases sockets and goroutines; the channel fabric has
//     nothing to release.
type Transport interface {
	// Attach binds the transport to the world it delivers into; called
	// exactly once, by the World constructor, before any Deliver.
	Attach(w *World)
	Deliver(src, dst, tag int, data []float64, due time.Time)
	Flush(src int)
	Busy() bool
	Reset()
	Close() error
}

// chanFabric is the default in-process transport: Deliver puts the
// message straight into the destination mailbox on the calling
// goroutine, exactly the pre-seam behaviour. It is always quiescent
// (delivery is synchronous), so Flush and Busy are trivial.
type chanFabric struct{ w *World }

func (f *chanFabric) Attach(w *World) { f.w = w }

func (f *chanFabric) Deliver(src, dst, tag int, data []float64, due time.Time) {
	f.w.arrive(src, dst, tag, data, due)
}

func (f *chanFabric) Flush(int) {}

func (f *chanFabric) Busy() bool { return false }

func (f *chanFabric) Reset() {}

func (f *chanFabric) Close() error { return nil }

// arrive is the receive side of every transport: it counts global
// progress (a delivery is the watchdog's strongest liveness signal) and
// enqueues into the destination mailbox a message claimable from due on.
func (w *World) arrive(src, dst, tag int, data []float64, due time.Time) {
	w.progress.Add(1)
	w.boxes[dst].put(Message{Source: src, Tag: tag, Delivered: due, Data: data})
}
