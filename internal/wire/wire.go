// Package wire frames a transport endpoint's traffic: one Codec per
// node owns the choice between wire format v1 and v2 and everything
// that follows from it — the small-message batcher, the strict decoder,
// and the wire-level metrics accounting — so the simulated and live
// transports call Multicast / EncodeUnicast / Decode and never learn
// which format is on the wire.
//
// internal/packet cannot count into internal/metrics (metrics depends
// on packet for its per-type counters); this package sits above both.
package wire

import (
	"rmcast/internal/core"
	"rmcast/internal/metrics"
	"rmcast/internal/packet"
)

// Codec frames one node's traffic in wire format v1 or v2.
//
// Under v1 every packet is its own frame, sent at once, and the flush
// methods have nothing to do. Under v2, multicast data packets that fit
// the carrier budget are queued in the batcher; Arm is invoked on the
// empty→nonempty transition and must schedule FlushBatch to run after
// the transport finishes its current event (a zero-delay timer in the
// simulator, a posted closure on the live event loop), so every data
// packet a protocol action produces back to back shares carrier frames.
// Anything else — unicast sends, control multicasts, oversized data —
// first flushes the queue, keeping frame order consistent with protocol
// send order.
//
// A codec built by New encodes every frame into one buffer it keeps, so
// a frame passed to send or returned by EncodeUnicast is a borrow, as a
// decoded packet is: valid until the codec's next Multicast,
// EncodeUnicast or FlushBatch. A transport that holds a frame past the
// call copies it. NewCodec's frames are fresh and the caller's.
//
// Codec is not concurrency-safe; confine it to the transport's event
// loop, as both transports confine their sockets.
type Codec struct {
	mx   *metrics.Session
	arm  func()
	send func(frame []byte)
	// v1 selects the v1 format; countV1 makes its frames count into mx
	// (v2 frames always do).
	v1, countV1 bool
	batch       packet.Batcher
	armed       bool
	// scratch is the one Packet every received frame is decoded into:
	// Decode lends it to emit and clears it afterwards.
	scratch packet.Packet
	// buf is the one buffer a v1 codec encodes every frame into; a v2
	// codec's is its lending batcher's.
	buf []byte
}

// New builds the codec for a session configured by cfg: v2 when
// cfg.WireV2 (resolving the compression threshold and carrier MTU
// defaults; core.Config.Normalize validates them), v1 otherwise, whose
// frames count into mx only when countWire is set. arm, send and mx are
// as for NewCodec. Its frames are lent (see Codec).
func New(cfg core.Config, countWire bool, mx *metrics.Session, arm func(), send func(frame []byte)) *Codec {
	if !cfg.WireV2 {
		return &Codec{mx: mx, send: send, v1: true, countV1: countWire}
	}
	minCompress := cfg.CompressThreshold
	if minCompress == 0 {
		minCompress = packet.DefaultCompressThreshold
	}
	c := NewCodec(minCompress, cfg.CoalesceMTU, mx, arm, send)
	c.batch.Lend = true
	return c
}

// NewCodec builds a v2 codec. minCompress and mtu follow Batcher
// semantics (<=0 disables compression; 0 MTU means
// packet.DefaultCoalesceMTU). arm schedules a future FlushBatch call;
// send transmits one finished multicast frame, which it may keep. mx
// may be nil (accounting becomes a no-op).
func NewCodec(minCompress, mtu int, mx *metrics.Session, arm func(), send func(frame []byte)) *Codec {
	c := &Codec{mx: mx, arm: arm, send: send}
	c.batch = packet.Batcher{MTU: mtu, MinCompress: minCompress, Emit: c.emit}
	return c
}

// encodeV1 frames p in wire format v1, into the codec's buffer.
func (c *Codec) encodeV1(p *packet.Packet) []byte {
	n := p.WireLen()
	if cap(c.buf) < n {
		c.buf = make([]byte, n)
	}
	frame := c.buf[:n]
	p.EncodeTo(frame)
	if c.countV1 {
		c.mx.CountWireFrame(len(frame), len(frame), 1, false)
	}
	return frame
}

func (c *Codec) emit(frame []byte, inner, rawLen int) {
	c.account(frame, inner, rawLen)
	c.send(frame)
}

func (c *Codec) account(frame []byte, inner, rawLen int) {
	compressed := packet.WireFlags(frame[packet.HeaderLenV2-1])&packet.WireCompressed != 0
	c.mx.CountWireFrame(len(frame), rawLen, inner, compressed)
}

// Multicast frames p for the group: coalescible v2 data packets queue
// for the next flush, everything else flushes the queue and goes out
// now.
func (c *Codec) Multicast(p *packet.Packet) {
	if c.v1 {
		c.send(c.encodeV1(p))
		return
	}
	if p.Type == packet.TypeData && c.batch.Fits(p) {
		c.batch.Add(p)
		if !c.armed {
			c.armed = true
			c.arm()
		}
		return
	}
	// Drain inline. The armed flag stays set: an already-scheduled
	// FlushBatch still fires and clears it, collecting anything queued
	// in between.
	c.batch.Flush()
	frame, raw := c.batch.Encode(p)
	c.emit(frame, 1, raw)
}

// EncodeUnicast flushes queued multicast frames (a unicast reply must
// not overtake the data it reacts to) and returns p's encoded, already
// accounted frame for the caller to address: under New, a borrow valid
// until the codec's next call.
func (c *Codec) EncodeUnicast(p *packet.Packet) []byte {
	if c.v1 {
		return c.encodeV1(p)
	}
	c.batch.Flush()
	frame, raw := c.batch.Encode(p)
	c.account(frame, 1, raw)
	return frame
}

// FlushBatch is the callback Arm schedules: it re-enables arming and
// drains the batcher.
func (c *Codec) FlushBatch() {
	c.armed = false
	c.batch.Flush()
}

// Decode decodes one received frame, calling emit per logical packet
// with a read-only borrow valid only during the call: the payload
// aliases frame (or a pooled inflate memo, which decodes of an
// identical frame by other codecs share), and the *Packet is the
// codec's one scratch packet, overwritten by the frame's next inner
// packet and cleared when Decode returns — a handler must not write to
// the payload, a handler that keeps either must Clone (see
// packet.Decode and packet.DecodeFrameV2), and emit must not decode on
// the same codec. A v2 codec decodes strictly. Every failure
// counts as a corrupt frame, under either format and on either
// transport: each peer of a session frames everything it sends, so a
// frame that fails any guard — including a truncation or a
// magic/version byte flipped by corruption — was damaged in flight or
// is not ours. The caller drops it; nothing was emitted.
func (c *Codec) Decode(frame []byte, emit func(*packet.Packet)) error {
	var err error
	if c.v1 {
		if err = packet.DecodeInto(&c.scratch, frame); err == nil {
			emit(&c.scratch)
		}
	} else {
		err = packet.DecodeFrameV2Into(&c.scratch, frame, emit)
	}
	c.scratch = packet.Packet{} // a kept pointer reads as an invalid packet, and frame is unpinned
	if err != nil {
		c.mx.CountCorruptFrame()
	}
	return err
}
