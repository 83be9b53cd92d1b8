package packet

import "encoding/binary"

// Batcher coalesces queued sub-MTU packets into MTU-sized v2 carrier
// frames. Transports queue multicast data packets with Add and arrange
// for Flush to run after the current event, so a window's worth of
// small packets sent back to back leaves the node as a handful of
// carrier frames instead of one datagram each.
//
// Add encodes the packet immediately, so the caller may reuse or
// mutate the packet (and its payload) the moment Add returns — the
// batcher holds no references. Emit receives each finished frame, the
// number of logical packets it carries, and its uncompressed wire
// length (for compression accounting). Order is preserved: frames are
// emitted in Add order, and a packet that cannot share a carrier
// flushes the queue before going out alone.
type Batcher struct {
	// MTU is the carrier frame budget in bytes (DefaultCoalesceMTU
	// when zero).
	MTU int
	// MinCompress is the compression threshold passed to EncodeV2
	// (zero disables compression).
	MinCompress int
	// Emit transmits one encoded frame. Must be set before use.
	Emit func(frame []byte, inner, rawLen int)

	pending []byte // length-prefixed inner v1 encodings, in Add order
	count   int
}

func (b *Batcher) mtu() int {
	if b.MTU > 0 {
		return b.MTU
	}
	return DefaultCoalesceMTU
}

// Fits reports whether p is small enough to ever share a carrier
// frame. Callers route non-fitting packets through EncodeV2 directly.
func (b *Batcher) Fits(p *Packet) bool {
	return HeaderLenV2+2+p.WireLen()+TrailerLen <= b.mtu()
}

// Pending returns the number of queued packets.
func (b *Batcher) Pending() int { return b.count }

// Add queues p, flushing first if p would overflow the carrier budget.
// p must satisfy Fits.
func (b *Batcher) Add(p *Packet) {
	wl := p.WireLen()
	if b.count > 0 && HeaderLenV2+len(b.pending)+2+wl+TrailerLen > b.mtu() {
		b.Flush()
	}
	off := len(b.pending)
	b.pending = append(b.pending, 0, 0)
	binary.BigEndian.PutUint16(b.pending[off:], uint16(wl))
	b.pending = append(b.pending, make([]byte, wl)...)
	p.EncodeTo(b.pending[off+2:])
	b.count++
}

// Flush emits the queued packets: a single packet leaves as a plain
// v2 frame (no carrier overhead), two or more as one carrier.
func (b *Batcher) Flush() {
	if b.count == 0 {
		return
	}
	first := b.pending[2:] // the first inner packet's v1 encoding
	if b.count == 1 {
		payload := first[HeaderLen:]
		b.Emit(sealV2(first, 0, payload, b.MinCompress), 1, HeaderLenV2+len(payload)+TrailerLen)
	} else {
		// The outer header echoes the first inner packet, with Flags
		// cleared and Aux carrying the inner count for observability;
		// decoders ignore it and trust only the inner encodings.
		var outer [HeaderLen]byte
		copy(outer[:], first)
		outer[3] = 0
		binary.BigEndian.PutUint32(outer[12:16], uint32(b.count))
		b.Emit(sealV2(outer[:], WireCarrier, b.pending, b.MinCompress), b.count,
			HeaderLenV2+len(b.pending)+TrailerLen)
	}
	b.pending = b.pending[:0]
	b.count = 0
}
