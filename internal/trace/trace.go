// Package trace records protocol-level packet events from a simulated
// or live session into a bounded ring buffer, for debugging protocol
// behavior and for the -trace mode of cmd/rmsim. Tracing is pull-based
// and allocation-light so it can stay enabled for large runs.
package trace

import (
	"fmt"
	"io"
	"sync"
	"time"

	"rmcast/internal/packet"
)

// Dir is the event direction relative to the traced node.
type Dir uint8

const (
	// Send is a unicast transmission.
	Send Dir = iota
	// SendMC is a multicast transmission.
	SendMC
	// Recv is a reception.
	Recv
	// Drop is a reception discarded before the protocol saw it
	// (decode failure, unknown peer).
	Drop
)

var dirNames = [...]string{"send", "mcast", "recv", "drop"}

func (d Dir) String() string {
	if int(d) < len(dirNames) {
		return dirNames[d]
	}
	return fmt.Sprintf("dir(%d)", uint8(d))
}

// Event is one traced packet event. Its fields run widest first, so the
// three one-byte fields share the tail word: 48 bytes on 64-bit.
type Event struct {
	At    time.Duration // virtual time
	Node  int           // the node the event happened at
	Peer  int           // destination (sends) or source (recvs); -1 for multicast
	Len   int           // payload bytes
	MsgID uint32
	Seq   uint32
	// Aux mirrors the packet's auxiliary word — the ejected rank on eject
	// announcements, the message size on allocation requests, the byte
	// offset on data packets. Deliberately absent from String() so the
	// golden trace digests predate it unchanged.
	Aux   uint32
	Dir   Dir
	Type  packet.Type
	Flags packet.Flags
}

// Multicast is the Peer value of group-addressed events.
const Multicast = -1

func (e Event) String() string {
	peer := fmt.Sprintf("%d", e.Peer)
	if e.Peer == Multicast {
		peer = "*"
	}
	arrow := "->"
	if e.Dir == Recv || e.Dir == Drop {
		arrow = "<-"
	}
	flags := ""
	if e.Flags&packet.FlagPoll != 0 {
		flags += "P"
	}
	if e.Flags&packet.FlagLast != 0 {
		flags += "L"
	}
	return fmt.Sprintf("%12v n%-3d %-5s %s %-3s %-9s msg=%d seq=%-6d%2s len=%d",
		e.At, e.Node, e.Dir, arrow, peer, e.Type, e.MsgID, e.Seq, flags, e.Len)
}

// Buffer is a bounded ring of events. The zero value is unusable; call
// New or NewShared. A Buffer from New is not safe for concurrent use —
// the simulator is single-threaded; the live transport, whose readers
// and event loop run on separate goroutines, uses NewShared, which
// guards the ring with a mutex.
//
// Independently of ring retention, a streaming consumer can subscribe
// with SetSink to observe every recorded event (the ring only keeps the
// tail). Sink delivery is batched for cheapness; the session runner must
// call Flush on close so the final partial batch reaches the sink —
// otherwise sink-derived counts fall short of Total() by up to one
// batch, and consumers like the invariant checkers would disagree with
// the metrics session.
type Buffer struct {
	mu      *sync.Mutex // nil for single-threaded buffers
	events  []Event
	next    int
	wrapped bool
	total   uint64
	// Filter, when non-nil, drops events for which it returns false.
	// Set it before recording begins; a shared buffer reads it without
	// the lock.
	Filter func(Event) bool

	sink  func([]Event)
	batch []Event
}

// DefaultSinkBatch is the sink delivery batch size used by SetSink.
const DefaultSinkBatch = 256

// New creates a buffer retaining the last cap events.
func New(cap int) *Buffer {
	if cap < 1 {
		panic("trace: non-positive capacity")
	}
	return &Buffer{events: make([]Event, 0, cap)}
}

// NewShared creates a buffer retaining the last cap events that is safe
// for concurrent Add and read calls — the variant the live transport
// records into.
func NewShared(cap int) *Buffer {
	b := New(cap)
	b.mu = &sync.Mutex{}
	return b
}

// SetSink attaches a streaming consumer: every event recorded from now
// on is delivered to sink in batches of up to batchSize events (the
// slice is reused between deliveries — consumers must not retain it).
// batchSize <= 0 selects DefaultSinkBatch. Call Flush when recording
// ends to deliver the final partial batch. On a shared buffer the sink
// runs with the buffer lock held.
func (b *Buffer) SetSink(batchSize int, sink func([]Event)) {
	if batchSize <= 0 {
		batchSize = DefaultSinkBatch
	}
	if b.mu != nil {
		b.mu.Lock()
		defer b.mu.Unlock()
	}
	b.sink = sink
	b.batch = make([]Event, 0, batchSize)
}

// Flush delivers events buffered for the sink but not yet handed over —
// the final partial batch of a session. Safe to call repeatedly and on
// buffers without a sink; nil-safe so session runners can call it
// unconditionally.
func (b *Buffer) Flush() {
	if b == nil {
		return
	}
	if b.mu != nil {
		b.mu.Lock()
		defer b.mu.Unlock()
	}
	b.flushLocked()
}

func (b *Buffer) flushLocked() {
	if b.sink == nil || len(b.batch) == 0 {
		return
	}
	b.sink(b.batch)
	b.batch = b.batch[:0]
}

// Add records one event.
func (b *Buffer) Add(e Event) {
	if b.Filter != nil && !b.Filter(e) {
		return
	}
	if b.mu != nil {
		b.mu.Lock()
		defer b.mu.Unlock()
	}
	b.total++
	if b.sink != nil {
		b.batch = append(b.batch, e)
		if len(b.batch) == cap(b.batch) {
			b.flushLocked()
		}
	}
	if len(b.events) < cap(b.events) {
		b.events = append(b.events, e)
		return
	}
	b.events[b.next] = e
	b.next = (b.next + 1) % cap(b.events)
	b.wrapped = true
}

// Total returns how many events were recorded (including ones that have
// since been overwritten).
func (b *Buffer) Total() uint64 {
	if b.mu != nil {
		b.mu.Lock()
		defer b.mu.Unlock()
	}
	return b.total
}

// Events returns the retained events in chronological order.
func (b *Buffer) Events() []Event {
	if b.mu != nil {
		b.mu.Lock()
		defer b.mu.Unlock()
	}
	if !b.wrapped {
		out := make([]Event, len(b.events))
		copy(out, b.events)
		return out
	}
	out := make([]Event, 0, cap(b.events))
	out = append(out, b.events[b.next:]...)
	out = append(out, b.events[:b.next]...)
	return out
}

// Fprint writes the retained events, one per line.
func (b *Buffer) Fprint(w io.Writer) {
	events := b.Events()
	if total := b.Total(); total > uint64(len(events)) {
		fmt.Fprintf(w, "... %d earlier events dropped ...\n", total-uint64(len(events)))
	}
	for _, e := range events {
		fmt.Fprintln(w, e.String())
	}
}
