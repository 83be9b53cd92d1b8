package packet

import (
	"encoding/binary"
	"slices"
)

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
	// Emit transmits one encoded frame. Must be set before use. The
	// frame is Emit's to keep unless Lend is set; then it is a borrow,
	// valid until the batcher's next frame.
	Emit func(frame []byte, inner, rawLen int)
	// Lend, when set, has the batcher encode every frame — Flush's and
	// Encode's — into one buffer it keeps instead of fresh storage.
	Lend bool

	buf     []byte // a lending batcher's frame storage
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
	b.pending = slices.Grow(b.pending, wl)[:off+2+wl] // as in sealV2
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
		b.Emit(b.seal(first, 0, payload), 1, HeaderLenV2+len(payload)+TrailerLen)
	} else {
		// The outer header echoes the first inner packet, with Flags
		// cleared and Aux carrying the inner count for observability;
		// decoders ignore it and trust only the inner encodings.
		var outer [HeaderLen]byte
		copy(outer[:], first)
		outer[3] = 0
		binary.BigEndian.PutUint32(outer[12:16], uint32(b.count))
		b.Emit(b.seal(outer[:], WireCarrier, b.pending), b.count,
			HeaderLenV2+len(b.pending)+TrailerLen)
	}
	b.pending = b.pending[:0]
	b.count = 0
}

// Encode frames p on its own as a plain v2 frame, as EncodeV2 does with
// the batcher's threshold; under Lend the frame is a borrow, as Emit's
// is. It neither queues nor flushes: a caller that must keep send order
// flushes first.
func (b *Batcher) Encode(p *Packet) (frame []byte, rawLen int) {
	var hdr [HeaderLen]byte
	p.putHeader(hdr[:])
	return b.seal(hdr[:], 0, p.Payload), HeaderLenV2 + len(p.Payload) + TrailerLen
}

// seal is sealV2 into the batcher's buffer when it lends, into fresh
// storage otherwise.
func (b *Batcher) seal(hdr []byte, wf WireFlags, payload []byte) []byte {
	if !b.Lend {
		return sealV2(nil, hdr, wf, payload, b.MinCompress)
	}
	b.buf = sealV2(b.buf[:0], hdr, wf, payload, b.MinCompress)
	return b.buf
}
