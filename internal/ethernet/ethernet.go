// Package ethernet models Ethernet-connected network hardware for the
// discrete-event simulator: point-to-point full-duplex links with finite
// output queues, store-and-forward switches, and a shared CSMA/CD bus with
// binary exponential backoff.
//
// The model operates at frame granularity. A Frame carries an opaque
// payload pointer for the upper layer (the IP fragment) plus an on-wire
// byte count; only the byte count affects timing. Per-frame wire overhead
// (header, CRC, preamble, inter-frame gap) is accounted for explicitly so
// that sustained throughput over 1500-byte frames lands at the ~96 Mbps a
// real 100 Mbps Ethernet delivers.
package ethernet

import (
	"time"

	"rmcast/internal/pool"
)

// Addr is a station (MAC-level) address. Hosts and switch lookups use
// small dense integers; Broadcast addresses every station.
type Addr int

// Broadcast is the all-stations destination address. Multicast frames in
// this model are sent to Broadcast and filtered by the receiving NIC's
// group membership, which mirrors how the paper's switches (no IGMP
// snooping) flooded multicast traffic to every port.
const Broadcast Addr = -1

// Frame is one Ethernet frame in flight.
//
// Frames may be pooled by the layer that creates them. Ownership is
// reference-counted: Send consumes one reference (the transmitter either
// delivers it onward or releases it at a drop site), RecvFrame hands one
// reference to the receiver (which must Release it or forward it), and
// fan-out points (switch flooding, bus delivery) Retain once per extra
// recipient. Frames built as plain literals — tests, one-off control
// traffic — never call SetFree, and for them Retain/Release are no-ops,
// so non-pooling code needs no changes.
type Frame struct {
	Src Addr
	Dst Addr // Broadcast for multicast/broadcast frames
	// WireBytes is the frame's total cost on the wire in bytes, including
	// the Ethernet header, CRC, preamble and inter-frame gap. Use
	// WireSize to compute it from a payload length.
	WireBytes int
	// Multicast marks group-addressed frames. The switch floods them and
	// NICs filter by group membership.
	Multicast bool
	// Payload is the upper-layer content (an IP fragment). It is opaque
	// to the Ethernet layer.
	Payload any

	refs pool.Refs[Frame]
	free func(*Frame)
}

// SetFree arms pooling on a new or recycled frame: fn is invoked exactly
// once, when the last reference is released, and must recycle the
// frame. The caller holds the initial reference.
func (f *Frame) SetFree(fn func(*Frame)) {
	f.refs.Retain()
	f.free = fn
}

// Retain adds a reference. No-op on unpooled frames.
func (f *Frame) Retain() {
	if f.free != nil {
		f.refs.Retain()
	}
}

// Release drops a reference, recycling the frame when the count reaches
// zero. No-op on unpooled frames.
func (f *Frame) Release() {
	if f.free != nil && f.refs.Release() {
		fn := f.free
		f.free = nil
		fn(f)
	}
}

// Physical-layer constants for Ethernet framing.
const (
	// MTU is the maximum IP packet size carried in one frame.
	MTU = 1500
	// HeaderBytes is the Ethernet header (14) plus CRC (4).
	HeaderBytes = 18
	// PreambleBytes is the preamble and start-of-frame delimiter.
	PreambleBytes = 8
	// GapBytes is the 96-bit inter-frame gap expressed in bytes.
	GapBytes = 12
	// Overhead is the total per-frame wire cost beyond the IP payload.
	Overhead = HeaderBytes + PreambleBytes + GapBytes
	// MinPayload is the minimum Ethernet payload; shorter payloads are
	// padded on the wire.
	MinPayload = 46
)

// WireSize returns the on-wire byte cost of a frame carrying an IP packet
// of n bytes, including padding, header, preamble and inter-frame gap.
func WireSize(n int) int {
	if n < MinPayload {
		n = MinPayload
	}
	return n + Overhead
}

// Rate is a link bandwidth in bits per second.
type Rate int64

// Common rates.
const (
	Rate10Mbps  Rate = 10_000_000
	Rate100Mbps Rate = 100_000_000
	Rate1Gbps   Rate = 1_000_000_000
)

// Serialize returns the time to clock n bytes onto a link of rate r.
func (r Rate) Serialize(n int) time.Duration {
	return time.Duration(int64(n) * 8 * int64(time.Second) / int64(r))
}

// A Receiver accepts frames delivered by a link or bus. RecvFrame is
// called at the simulated instant the last bit arrives.
type Receiver interface {
	RecvFrame(f *Frame)
}

// ReceiverFunc adapts a function to the Receiver interface.
type ReceiverFunc func(f *Frame)

// RecvFrame calls fn(f).
func (fn ReceiverFunc) RecvFrame(f *Frame) { fn(f) }

// sink is a Receiver that discards everything; used as a safe default so
// an unwired Tx never nil-panics.
type sink struct{}

func (sink) RecvFrame(f *Frame) { f.Release() }
