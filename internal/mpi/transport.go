package mpi

import "time"

// Transport is the runtime's wire seam: everything between an issued send
// (counted, due time stamped) and the receiver's mailbox — the channel
// fabric in-process, the TCP mesh over sockets (tcp.go, cmd/tilerankd).
// Contract:
//
//   - Deliver moves one message src→dst, on the sender, when it is issued;
//     data's ownership passes to the receiving mailbox (unchanged on the
//     channel fabric, marshalled once on a wire).
//   - No receiver claims a message before its due time (zero: at once). The
//     channel fabric stamps it on the message; the TCP mesh holds the frame
//     until due. Due times never decrease per sending rank.
//   - Messages on one directed link reach World.arrive in Deliver order:
//     a mailbox stream's head is its only claimable message, so link order
//     is stream order, for the barrier's reserved tag too.
//   - A transport may return from Deliver before the message reaches the
//     mailbox, but must report Busy() until it does (or a cross-process
//     frame is handed to the OS): the watchdog reads that as progress.
//   - Flush(src) blocks until every frame src delivered is out of the
//     transport's buffers, so "sent before the snapshot" is well defined.
//   - Reset returns the transport to its just-constructed state between
//     runs and is a barrier: no frame of the previous run reaches a
//     mailbox after it returns.
//   - Close releases sockets and goroutines.
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
	w.boxes[dst].put(dst, Message{Source: src, Tag: tag, Delivered: due, Data: data})
}
