package wire

import (
	"bytes"
	"strings"
	"testing"

	"rmcast/internal/core"
	"rmcast/internal/metrics"
	"rmcast/internal/packet"
)

// rig is a codec wired to a recording transport: sent collects a copy
// of every frame in the order it left (multicast through send, unicast
// through the rig's unicast) — New's codec lends its frames only until
// its next call — and arms counts Arm calls.
type rig struct {
	c    *Codec
	mx   *metrics.Session
	sent [][]byte
	arms int
}

func newRig(cfg core.Config, countWire bool) *rig {
	r := &rig{mx: metrics.NewSession()}
	r.c = New(cfg, countWire, r.mx, func() { r.arms++ }, func(f []byte) { r.sent = append(r.sent, bytes.Clone(f)) })
	return r
}

// unicast encodes p as a unicast reply and records a copy of its frame.
func (r *rig) unicast(p *packet.Packet) {
	r.sent = append(r.sent, bytes.Clone(r.c.EncodeUnicast(p)))
}

// decodeAll runs every recorded frame back through the codec and
// returns the logical packets in arrival order.
func (r *rig) decodeAll(t *testing.T) []*packet.Packet {
	t.Helper()
	var out []*packet.Packet
	for i, f := range r.sent {
		if err := r.c.Decode(f, func(p *packet.Packet) { out = append(out, p.Clone()) }); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	return out
}

func data(seq uint32, payload []byte) *packet.Packet {
	return &packet.Packet{Type: packet.TypeData, MsgID: 1, Seq: seq, Aux: seq * 512, Payload: payload}
}

// TestV1RoundTrip: a v1 codec sends every packet at once as its plain
// v1 encoding, never arms, has nothing to flush, and counts frames only
// when the session opted in.
func TestV1RoundTrip(t *testing.T) {
	for _, count := range []bool{false, true} {
		r := newRig(core.Config{}, count)
		d := data(3, []byte("payload"))
		ack := &packet.Packet{Type: packet.TypeAck, Seq: 4, Src: 2}
		r.c.Multicast(d)
		if len(r.sent) != 1 || !bytes.Equal(r.sent[0], d.Encode()) {
			t.Fatalf("v1 multicast did not leave at once as p.Encode(): %x", r.sent)
		}
		r.unicast(ack)
		if !bytes.Equal(r.sent[1], ack.Encode()) {
			t.Fatalf("v1 unicast frame is not p.Encode(): %x", r.sent[1])
		}
		r.c.FlushBatch()
		if len(r.sent) != 2 || r.arms != 0 {
			t.Fatalf("v1 flush sent or armed: %d frames, %d arms", len(r.sent), r.arms)
		}
		got := r.decodeAll(t)
		if len(got) != 2 || got[0].Seq != 3 || string(got[0].Payload) != "payload" || got[1].Type != packet.TypeAck {
			t.Fatalf("v1 round trip changed the packets: %v", got)
		}
		want := uint64(0)
		if count {
			want = 2
		}
		if m := r.mx.Snapshot(); m.WireFrames != want || m.CorruptFrames != 0 {
			t.Fatalf("countWire=%v: wire_frames %d (want %d), corrupt_frames %d", count, m.WireFrames, want, m.CorruptFrames)
		}
	}
}

// TestDecodeFailureCountsCorrupt: whatever the format, a frame the
// decoder rejects emits nothing and counts one corrupt frame — a v2
// frame at a v1 node and a v1 frame at a v2 node included.
func TestDecodeFailureCountsCorrupt(t *testing.T) {
	v1Frame := data(1, []byte("x")).Encode()
	v2Frame, _ := packet.EncodeV2(data(1, []byte("x")), 0)
	for name, c := range map[string]struct {
		cfg    core.Config
		frames [][]byte
	}{
		"v1": {core.Config{}, [][]byte{nil, []byte("garbage on the port"), v1Frame[:packet.HeaderLen-1], v2Frame}},
		"v2": {core.Config{WireV2: true}, [][]byte{nil, []byte("garbage on the port"), v2Frame[:len(v2Frame)-1], v1Frame}},
	} {
		r := newRig(c.cfg, false)
		for i, f := range c.frames {
			if err := r.c.Decode(f, func(*packet.Packet) { t.Fatalf("%s frame %d: emitted a packet", name, i) }); err == nil {
				t.Fatalf("%s frame %d: accepted", name, i)
			}
		}
		if got := r.mx.Snapshot().CorruptFrames; got != uint64(len(c.frames)) {
			t.Fatalf("%s: corrupt_frames = %d, want %d", name, got, len(c.frames))
		}
	}
}

// TestFlushKeepsSendOrder: queued data leaves before the unicast reply
// or control multicast that follows it, so frame order on the wire is
// protocol send order, and FlushBatch re-enables arming.
func TestFlushKeepsSendOrder(t *testing.T) {
	r := newRig(core.Config{WireV2: true}, false)
	small := bytes.Repeat([]byte("log line\n"), 10)
	r.c.Multicast(data(0, small))
	r.c.Multicast(data(1, small))
	if len(r.sent) != 0 || r.arms != 1 {
		t.Fatalf("two queued packets: %d frames sent, %d arms (want 0, 1)", len(r.sent), r.arms)
	}
	r.unicast(&packet.Packet{Type: packet.TypeAck, Seq: 2})
	r.c.Multicast(data(2, small))
	r.c.Multicast(&packet.Packet{Type: packet.TypeEject, Aux: 5})
	big := data(3, make([]byte, 4000)) // over the carrier budget: goes out alone
	r.c.Multicast(data(4, small))
	r.c.Multicast(big)
	if r.arms != 1 {
		t.Fatalf("inline flushes re-armed: %d arms", r.arms)
	}

	var order []string
	for _, p := range r.decodeAll(t) {
		order = append(order, p.String())
	}
	want := []string{data(0, small).String(), data(1, small).String(),
		(&packet.Packet{Type: packet.TypeAck, Seq: 2}).String(), data(2, small).String(),
		(&packet.Packet{Type: packet.TypeEject, Aux: 5}).String(), data(4, small).String(), big.String()}
	if len(order) != len(want) {
		t.Fatalf("decoded %d packets, want %d: %v", len(order), len(want), order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("packet %d is %q, want %q", i, order[i], want[i])
		}
	}
	if m := r.mx.Snapshot(); m.CarrierFrames != 1 || m.CoalescedPackets != 2 || m.WireFrames != uint64(len(r.sent)) {
		t.Fatalf("accounting: %d carriers of %d packets in %d frames (sent %d)",
			m.CarrierFrames, m.CoalescedPackets, m.WireFrames, len(r.sent))
	}

	// The scheduled flush finds the queue already drained, and clears
	// the way for the next burst to arm again.
	sent := len(r.sent)
	r.c.FlushBatch()
	if len(r.sent) != sent {
		t.Fatal("FlushBatch sent frames from an empty queue")
	}
	r.c.Multicast(data(5, small))
	if r.arms != 2 {
		t.Fatalf("FlushBatch did not re-arm: %d arms", r.arms)
	}
	r.c.FlushBatch()
	if len(r.sent) != sent+1 {
		t.Fatalf("FlushBatch left the queued packet behind: %d frames", len(r.sent)-sent)
	}
}

// TestDecodeZeroAllocs: receiving allocates nothing the handler is not
// given to keep. A v1 data frame, a v1 control frame, plain and
// compressed v2 frames and v2 carriers, plain and compressed, all
// decode into the codec's one scratch packet, a carrier's inner packets
// one after another. A compressed frame decoded again is served from
// the inflate memo; two compressed frames alternated miss it every
// time, so they inflate with reused flate state.
func TestDecodeZeroAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte{0xA5}, 512)
	logs := bytes.Repeat([]byte("GET /index.html 200 17ms\n"), 21)[:512]
	ack := &packet.Packet{Type: packet.TypeAck, MsgID: 1, Seq: 9, Src: 3}
	carrier := func(minCompress int) []byte {
		var frame []byte
		batch := NewCodec(minCompress, 0, nil, func() {}, func(f []byte) { frame = f })
		batch.Multicast(data(0, payload))
		batch.Multicast(data(1, logs))
		batch.FlushBatch()
		return frame
	}
	v2 := func(p *packet.Packet, minCompress int) []byte {
		frame, _ := packet.EncodeV2(p, minCompress)
		return frame
	}
	compressed := [][]byte{v2(data(3, payload), packet.DefaultCompressThreshold), v2(data(4, logs), packet.DefaultCompressThreshold)}
	compressedCarrier := carrier(packet.DefaultCompressThreshold)
	for _, f := range [][]byte{compressed[0], compressed[1], compressedCarrier} {
		if packet.WireFlags(f[packet.HeaderLenV2-1])&packet.WireCompressed == 0 {
			t.Fatalf("%d-byte frame did not compress", len(f))
		}
	}
	for name, c := range map[string]struct {
		codec  *Codec
		frames [][]byte // decoded in turn
		want   int      // logical packets per frame
	}{
		"v1 data":                    {New(core.Config{}, false, nil, nil, nil), [][]byte{data(0, payload).Encode()}, 1},
		"v1 control":                 {New(core.Config{}, true, metrics.NewSession(), nil, nil), [][]byte{ack.Encode()}, 1},
		"v2 plain":                   {NewCodec(0, 0, nil, nil, nil), [][]byte{v2(data(2, payload), 0)}, 1},
		"v2 carrier":                 {NewCodec(0, 0, nil, nil, nil), [][]byte{carrier(0)}, 2},
		"v2 compressed, memo hit":    {NewCodec(0, 0, nil, nil, nil), compressed[:1], 1},
		"v2 compressed, memo miss":   {NewCodec(0, 0, nil, nil, nil), compressed, 1},
		"v2 compressed carrier, hit": {NewCodec(0, 0, nil, nil, nil), [][]byte{compressedCarrier}, 2},
	} {
		got, i := 0, 0
		emit := func(*packet.Packet) { got++ }
		decode := func() {
			if err := c.codec.Decode(c.frames[i%len(c.frames)], emit); err != nil {
				t.Fatal(err)
			}
			i++
		}
		for range c.frames {
			decode() // size the reused buffers for every frame of the row
		}
		got = 0
		if allocs := testing.AllocsPerRun(200, decode); allocs != 0 {
			t.Errorf("%s: Decode allocated %.1f objects per frame, want 0", name, allocs)
		}
		if got != 201*c.want {
			t.Errorf("%s: %d packets emitted over 201 frames, want %d each", name, got, c.want)
		}
	}
}

// TestDecodeLendsOneScratchPacket pins the borrow: every emit of a
// codec sees the same *Packet, a kept pointer reads as an invalid
// packet once Decode returns, and a Clone taken inside emit survives.
func TestDecodeLendsOneScratchPacket(t *testing.T) {
	for _, cfg := range []core.Config{{}, {WireV2: true}} {
		r := newRig(cfg, false)
		r.c.Multicast(data(0, []byte("first")))
		r.c.Multicast(data(1, []byte("second")))
		r.c.FlushBatch()
		var kept []*packet.Packet
		var clones []*packet.Packet
		for _, f := range r.sent {
			if err := r.c.Decode(f, func(p *packet.Packet) {
				kept = append(kept, p)
				clones = append(clones, p.Clone())
			}); err != nil {
				t.Fatal(err)
			}
		}
		if len(kept) != 2 || kept[0] != kept[1] {
			t.Fatalf("WireV2=%v: emits did not share one scratch packet: %p %p", cfg.WireV2, kept[0], kept[1])
		}
		if kept[0].Type.Valid() || kept[0].Payload != nil {
			t.Fatalf("WireV2=%v: the scratch packet still reads as %v after Decode", cfg.WireV2, kept[0])
		}
		if string(clones[0].Payload) != "first" || string(clones[1].Payload) != "second" || clones[1].Seq != 1 {
			t.Fatalf("WireV2=%v: clones taken inside emit did not survive: %v %v", cfg.WireV2, clones[0], clones[1])
		}
	}
}

// TestSteadyStateAllocs: framing and unframing a compressible 512-byte
// packet under v2 allocates nothing — the frame is the codec's one
// buffer, lent to send; the flate writer, reader and scratch come from a
// free list that keeps them instead of being rebuilt per frame (which
// cost about 1.2 MB a packet) or after a GC; the batcher queues into
// storage it keeps; and the decoded packet is the codec's scratch.
func TestSteadyStateAllocs(t *testing.T) {
	var frame []byte
	c := New(core.Config{WireV2: true}, false, nil, func() {}, func(f []byte) { frame = f })
	p := data(7, bytes.Repeat([]byte("GET /index.html 200 17ms\n"), 21)[:512])
	var got int
	cycle := func() {
		c.Multicast(p)
		c.FlushBatch()
		if err := c.Decode(frame, func(q *packet.Packet) { got = len(q.Payload) }); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // build the flate state and size its buffers
	if got != 512 || len(frame) >= 300 {
		t.Fatalf("packet did not compress and round-trip: %d-byte frame, %d-byte payload", len(frame), got)
	}
	if allocs := testing.AllocsPerRun(2000, cycle); allocs != 0 {
		t.Fatalf("v2 encode+decode allocates %.1f objects per packet, want 0", allocs)
	}
}

// TestEncodeZeroAllocs: a codec built by New encodes every frame into
// the one buffer it keeps, so once that buffer has grown, sending
// allocates nothing — v1 and v2 frames, plain, compressed and carriers,
// through Multicast + FlushBatch and through EncodeUnicast alike.
func TestEncodeZeroAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte{0xA5}, 512)
	logs := bytes.Repeat([]byte("GET /index.html 200 17ms\n"), 21)[:512]
	ack := &packet.Packet{Type: packet.TypeAck, MsgID: 1, Seq: 9, Src: 3}
	plain := core.Config{WireV2: true, CompressThreshold: -1}
	for name, c := range map[string]struct {
		cfg   core.Config
		mcast []*packet.Packet // multicast in turn, then FlushBatch
		// frames is how many multicast frames a cycle sends; compressed
		// and carriers how many of all its frames are so.
		frames, compressed, carriers int
	}{
		"v1":                    {core.Config{}, []*packet.Packet{data(0, payload), data(1, logs)}, 2, 0, 0},
		"v2 plain":              {plain, []*packet.Packet{data(0, payload)}, 1, 0, 0},
		"v2 plain, oversized":   {plain, []*packet.Packet{data(0, make([]byte, 4000))}, 1, 0, 0},
		"v2 compressed":         {core.Config{WireV2: true}, []*packet.Packet{data(0, logs)}, 1, 1, 0},
		"v2 carrier":            {plain, []*packet.Packet{data(0, payload), data(1, payload)}, 1, 0, 1},
		"v2 compressed carrier": {core.Config{WireV2: true}, []*packet.Packet{data(0, logs), data(1, logs)}, 1, 1, 1},
	} {
		mx := metrics.NewSession()
		sent := 0
		codec := New(c.cfg, true, mx, func() {}, func([]byte) { sent++ })
		cycle := func() {
			for _, p := range c.mcast {
				codec.Multicast(p)
			}
			codec.FlushBatch()
			if len(codec.EncodeUnicast(ack)) == 0 {
				t.Fatalf("%s: empty unicast frame", name)
			}
		}
		cycle() // grow the codec's buffer and the batcher's queue
		if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
			t.Errorf("%s: encoding allocated %.1f objects per cycle, want 0", name, allocs)
		}
		m := mx.Snapshot()
		if sent != 202*c.frames || m.WireFrames != uint64(202*(c.frames+1)) ||
			m.CompressedFrames != uint64(202*c.compressed) || m.CarrierFrames != uint64(202*c.carriers) {
			t.Errorf("%s: %d sent, %d frames, %d compressed, %d carriers over 202 cycles; want %d, %d, %d, %d per cycle",
				name, sent, m.WireFrames, m.CompressedFrames, m.CarrierFrames, c.frames, c.frames+1, c.compressed, c.carriers)
		}
	}
}

// TestNewCodecFramesAreTheCallers: a NewCodec codec gives every frame
// fresh storage, so frames kept across later encodes — as a benchmark
// that encodes a batch and then decodes it does — still decode to the
// packets that were sent.
func TestNewCodecFramesAreTheCallers(t *testing.T) {
	var kept [][]byte
	c := NewCodec(packet.DefaultCompressThreshold, 0, nil, func() {}, func(f []byte) { kept = append(kept, f) })
	logs := bytes.Repeat([]byte("GET /index.html 200 17ms\n"), 21)[:512]
	var want []string
	for seq := uint32(0); seq < 6; seq++ {
		p := data(seq, logs[:100+int(seq)*60])
		want = append(want, p.String())
		if seq%3 == 2 {
			kept = append(kept, c.EncodeUnicast(p))
			continue
		}
		c.Multicast(p)
		c.FlushBatch()
	}
	var got []string
	for i, f := range kept {
		if err := c.Decode(f, func(p *packet.Packet) { got = append(got, p.String()) }); err != nil {
			t.Fatalf("kept frame %d no longer decodes: %v", i, err)
		}
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("kept frames decode to\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
