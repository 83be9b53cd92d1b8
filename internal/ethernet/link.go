package ethernet

import (
	"time"

	"rmcast/internal/sim"
)

// TxConfig describes one direction of a link.
type TxConfig struct {
	// Rate is the link bandwidth.
	Rate Rate
	// Propagation is the signal propagation delay to the peer. On a LAN
	// this is well under a microsecond of cable plus PHY latency.
	Propagation time.Duration
	// QueueCap bounds the transmit queue in wire bytes (frames waiting
	// plus the frame being serialized). Zero means unbounded. When the
	// queue is full new frames are dropped (drop-tail), which is how
	// switch output ports and NICs lose packets in this model.
	QueueCap int
}

// Tx is one direction of a full-duplex link: a serializing transmitter
// with a drop-tail queue, delivering to a fixed peer Receiver.
//
// Send is the only entry point. A frame accepted at time t begins
// serialization when all previously accepted frames have finished, and is
// delivered to the peer one propagation delay after its last bit is sent.
// This yields correct store-and-forward pipelining across multi-hop paths
// without modeling individual bits.
type Tx struct {
	sim  *sim.Simulator
	cfg  TxConfig
	peer Receiver

	busyUntil sim.Time
	queued    int // wire bytes accepted but not yet fully serialized

	// DropFn, when non-nil, is consulted for every frame after queue
	// admission; returning true discards the frame in flight. Tests and
	// failure-injection experiments use it to model link errors.
	DropFn func(*Frame) bool

	stats TxStats
}

// TxStats counts transmitter activity.
type TxStats struct {
	Sent       uint64 // frames fully serialized
	SentBytes  uint64 // wire bytes fully serialized
	QueueDrops uint64 // frames rejected because the queue was full
	ErrorDrops uint64 // frames discarded by DropFn
	MaxQueued  int    // high-water mark of queued wire bytes
}

// NewTx returns a transmitter on s delivering to peer. A nil peer is
// replaced with a discard sink so wiring order doesn't matter.
func NewTx(s *sim.Simulator, cfg TxConfig, peer Receiver) *Tx {
	if peer == nil {
		peer = sink{}
	}
	if cfg.Rate <= 0 {
		panic("ethernet: Tx with non-positive rate")
	}
	return &Tx{sim: s, cfg: cfg, peer: peer}
}

// Stats returns a copy of the transmitter counters.
func (t *Tx) Stats() TxStats { return t.stats }

// Queued returns the wire bytes currently queued or in serialization.
func (t *Tx) Queued() int { return t.queued }

// DrainTime returns how long the link needs to serialize n bytes.
func (t *Tx) DrainTime(n int) time.Duration { return t.cfg.Rate.Serialize(n) }

// Send enqueues f for transmission, consuming the caller's frame
// reference. It reports whether the frame was accepted; false means it
// was dropped because the queue was full.
func (t *Tx) Send(f *Frame) bool {
	if f.WireBytes <= 0 {
		panic("ethernet: frame with non-positive wire size")
	}
	if t.cfg.QueueCap > 0 && t.queued+f.WireBytes > t.cfg.QueueCap {
		t.stats.QueueDrops++
		f.Release()
		return false
	}
	t.queued += f.WireBytes
	if t.queued > t.stats.MaxQueued {
		t.stats.MaxQueued = t.queued
	}
	now := t.sim.Now()
	start := t.busyUntil
	if start < now {
		start = now
	}
	done := start + t.cfg.Rate.Serialize(f.WireBytes)
	t.busyUntil = done
	// A flood sends one frame to every idle port at once, so these
	// Posts join one queue entry.
	t.sim.Post(done, txSerialized, t, f)
	return true
}

// txSerialized fires when the frame's last bit leaves the transmitter.
// The clock equals the scheduled completion time, so the arrival instant
// is recomputed from Now() rather than captured.
func txSerialized(a, b any) {
	t, f := a.(*Tx), b.(*Frame)
	t.queued -= f.WireBytes
	t.stats.Sent++
	t.stats.SentBytes += uint64(f.WireBytes)
	if t.DropFn != nil && t.DropFn(f) {
		t.stats.ErrorDrops++
		f.Release()
		return
	}
	if t.cfg.Propagation == 0 {
		t.peer.RecvFrame(f)
		return
	}
	t.sim.Post(t.sim.Now()+t.cfg.Propagation, txDeliver, t, f)
}

func txDeliver(a, b any) {
	a.(*Tx).peer.RecvFrame(b.(*Frame))
}

// Link is a full-duplex point-to-point link: two independent Tx halves.
type Link struct {
	// AtoB carries frames from endpoint A to endpoint B; BtoA the reverse.
	AtoB, BtoA *Tx
}

// NewLink creates a symmetric full-duplex link between a and b.
func NewLink(s *sim.Simulator, cfg TxConfig, a, b Receiver) *Link {
	return &Link{
		AtoB: NewTx(s, cfg, b),
		BtoA: NewTx(s, cfg, a),
	}
}
