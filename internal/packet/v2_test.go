package packet

import (
	"bytes"
	"encoding/binary"
	"strings"
	"sync"
	"testing"
)

// decodeOne runs DecodeFrameV2 and returns the emitted packets, cloned
// so assertions outlive the borrow window.
func decodeOne(t *testing.T, frame []byte) []*Packet {
	t.Helper()
	var out []*Packet
	if err := DecodeFrameV2(frame, func(p *Packet) { out = append(out, p.Clone()) }); err != nil {
		t.Fatalf("DecodeFrameV2: %v", err)
	}
	return out
}

func samePacket(a, b *Packet) bool {
	return a.Type == b.Type && a.Flags == b.Flags && a.Src == b.Src &&
		a.MsgID == b.MsgID && a.Seq == b.Seq && a.Aux == b.Aux &&
		bytes.Equal(a.Payload, b.Payload)
}

func TestV2RoundTripPlain(t *testing.T) {
	for ty := TypeAllocReq; ty <= TypeLeft; ty++ {
		p := &Packet{Type: ty, Flags: FlagPoll | FlagLast, Src: 12,
			MsgID: 7, Seq: 99, Aux: 4096, Payload: []byte("hello, wire v2")}
		frame, raw := EncodeV2(p, 0)
		if raw != len(frame) {
			t.Fatalf("%v: rawLen %d != frame len %d with compression off", ty, raw, len(frame))
		}
		if len(frame) != HeaderLenV2+len(p.Payload)+TrailerLen {
			t.Fatalf("%v: frame length %d", ty, len(frame))
		}
		got := decodeOne(t, frame)
		if len(got) != 1 || !samePacket(got[0], p) {
			t.Fatalf("%v: round trip changed the packet: %+v vs %+v", ty, got, p)
		}
	}
}

func TestV2CompressionRoundTrip(t *testing.T) {
	compressible := bytes.Repeat([]byte("all work and no play makes a dull log line\n"), 40)
	p := &Packet{Type: TypeData, MsgID: 1, Seq: 3, Aux: 8000, Payload: compressible}
	frame, raw := EncodeV2(p, DefaultCompressThreshold)
	if len(frame) >= raw {
		t.Fatalf("compressible payload did not shrink: frame %d raw %d", len(frame), raw)
	}
	if WireFlags(frame[18])&WireCompressed == 0 {
		t.Fatal("WireCompressed flag not set")
	}
	got := decodeOne(t, frame)
	if len(got) != 1 || !samePacket(got[0], p) {
		t.Fatal("compressed round trip changed the packet")
	}
}

// TestV2IncompressibleSkipsCompression: a payload flate cannot shrink
// ships raw, flagged uncompressed, costing nothing but the v2 overhead.
func TestV2IncompressibleSkipsCompression(t *testing.T) {
	payload := make([]byte, 512)
	x := uint32(0x9E3779B9)
	for i := range payload {
		x = x*1664525 + 1013904223
		payload[i] = byte(x >> 24)
	}
	p := &Packet{Type: TypeData, Seq: 1, Payload: payload}
	frame, raw := EncodeV2(p, DefaultCompressThreshold)
	if len(frame) != raw {
		t.Fatalf("incompressible payload was 'compressed': frame %d raw %d", len(frame), raw)
	}
	if WireFlags(frame[18])&WireCompressed != 0 {
		t.Fatal("WireCompressed flag set on a raw payload")
	}
	got := decodeOne(t, frame)
	if !samePacket(got[0], p) {
		t.Fatal("raw round trip changed the packet")
	}
}

// TestBatcherCoalesces: a window of small data packets leaves as one
// carrier frame that unpacks to the identical sequence.
func TestBatcherCoalesces(t *testing.T) {
	var frames [][]byte
	var inners, raws []int
	b := &Batcher{Emit: func(f []byte, inner, raw int) {
		frames = append(frames, append([]byte(nil), f...))
		inners = append(inners, inner)
		raws = append(raws, raw)
	}}
	var want []*Packet
	for i := 0; i < 5; i++ {
		p := &Packet{Type: TypeData, MsgID: 2, Seq: uint32(i), Aux: uint32(i * 200),
			Src: 0, Payload: bytes.Repeat([]byte{byte(i)}, 200)}
		want = append(want, p.Clone())
		if !b.Fits(p) {
			t.Fatalf("200-byte packet should fit the default MTU")
		}
		b.Add(p)
		// The batcher must hold no reference to p or its payload.
		p.Seq = 0xDEAD
		for j := range p.Payload {
			p.Payload[j] = 0xFF
		}
	}
	b.Flush()
	if len(frames) != 1 {
		t.Fatalf("expected 1 carrier frame, got %d", len(frames))
	}
	if inners[0] != 5 {
		t.Fatalf("carrier reports %d inner packets, want 5", inners[0])
	}
	if len(frames[0]) > DefaultCoalesceMTU {
		t.Fatalf("carrier frame %d bytes exceeds MTU %d", len(frames[0]), DefaultCoalesceMTU)
	}
	var got []*Packet
	if err := DecodeFrameV2(frames[0], func(p *Packet) { got = append(got, p.Clone()) }); err != nil {
		t.Fatalf("decode carrier: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("carrier unpacked %d packets, want %d", len(got), len(want))
	}
	for i := range want {
		if !samePacket(got[i], want[i]) {
			t.Fatalf("inner packet %d changed: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestBatcherRespectsMTU: packets stream out in order across several
// carriers, none over budget.
func TestBatcherRespectsMTU(t *testing.T) {
	var got []*Packet
	var frames int
	b := &Batcher{MTU: 600, Emit: func(f []byte, inner, raw int) {
		frames++
		if len(f) > 600 {
			t.Fatalf("frame %d bytes exceeds MTU 600", len(f))
		}
		if err := DecodeFrameV2(f, func(p *Packet) { got = append(got, p.Clone()) }); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}}
	const n = 20
	for i := 0; i < n; i++ {
		b.Add(&Packet{Type: TypeData, Seq: uint32(i), Payload: bytes.Repeat([]byte{byte(i)}, 150)})
	}
	b.Flush()
	if frames < 2 {
		t.Fatalf("expected multiple carrier frames, got %d", frames)
	}
	if len(got) != n {
		t.Fatalf("unpacked %d packets, want %d", len(got), n)
	}
	for i, p := range got {
		if p.Seq != uint32(i) {
			t.Fatalf("packet %d out of order: seq %d", i, p.Seq)
		}
	}
}

// TestBatcherSingleFlushAvoidsCarrier: one queued packet leaves as a
// plain v2 frame, not a carrier of one.
func TestBatcherSingleFlushAvoidsCarrier(t *testing.T) {
	var frame []byte
	b := &Batcher{Emit: func(f []byte, inner, raw int) {
		if inner != 1 {
			t.Fatalf("inner = %d", inner)
		}
		frame = append([]byte(nil), f...)
	}}
	p := &Packet{Type: TypeData, Seq: 9, Payload: []byte("solo")}
	b.Add(p)
	b.Flush()
	if frame == nil {
		t.Fatal("no frame emitted")
	}
	if WireFlags(frame[18])&WireCarrier != 0 {
		t.Fatal("single packet emitted as a carrier")
	}
	got := decodeOne(t, frame)
	if !samePacket(got[0], p) {
		t.Fatal("single flush changed the packet")
	}
	if b.Pending() != 0 {
		t.Fatal("batcher not drained")
	}
}

// TestBatcherOversizeBypasses: a packet too large to share a carrier
// flushes the queue and goes out alone, order preserved.
func TestBatcherOversizeBypasses(t *testing.T) {
	var order []uint32
	b := &Batcher{MTU: 400, Emit: func(f []byte, inner, raw int) {
		if err := DecodeFrameV2(f, func(p *Packet) { order = append(order, p.Seq) }); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}}
	small := &Packet{Type: TypeData, Seq: 1, Payload: make([]byte, 100)}
	big := &Packet{Type: TypeData, Seq: 2, Payload: make([]byte, 1000)}
	b.Add(small)
	if b.Fits(big) {
		t.Fatal("1000-byte packet should not fit a 400-byte MTU")
	}
	b.Flush()
	f, raw := EncodeV2(big, 0)
	b.Emit(f, 1, raw)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v", order)
	}
}

// v2Corpus builds one frame of every v2 shape: plain, compressed,
// carrier, and compressed carrier.
func v2Corpus() map[string][]byte {
	plain, _ := EncodeV2(&Packet{Type: TypeData, MsgID: 3, Seq: 5, Aux: 1000,
		Payload: []byte("plain v2 payload")}, 0)
	compressed, _ := EncodeV2(&Packet{Type: TypeData, MsgID: 3, Seq: 6, Aux: 2000,
		Payload: []byte(strings.Repeat("compressible! ", 30))}, DefaultCompressThreshold)
	mk := func(min int) []byte {
		var frame []byte
		b := &Batcher{MinCompress: min, Emit: func(f []byte, _, _ int) {
			frame = append([]byte(nil), f...)
		}}
		for i := 0; i < 4; i++ {
			b.Add(&Packet{Type: TypeData, MsgID: 3, Seq: uint32(10 + i),
				Payload: []byte(strings.Repeat("log line\n", 10))})
		}
		b.Flush()
		return frame
	}
	return map[string][]byte{
		"plain":              plain,
		"compressed":         compressed,
		"carrier":            mk(0),
		"carrier-compressed": mk(DefaultCompressThreshold),
	}
}

// TestV2BitFlipsAllRejected flips every bit of every v2 frame shape
// and demands the strict decoder reject each mutation without emitting
// a single packet — the 100%-detection guarantee behind corrupt-frame
// injection.
func TestV2BitFlipsAllRejected(t *testing.T) {
	for name, frame := range v2Corpus() {
		for i := 0; i < len(frame)*8; i++ {
			mut := append([]byte(nil), frame...)
			mut[i/8] ^= 1 << (i % 8)
			emitted := 0
			err := DecodeFrameV2(mut, func(*Packet) { emitted++ })
			if err == nil {
				t.Fatalf("%s: bit flip %d accepted", name, i)
			}
			if emitted != 0 {
				t.Fatalf("%s: bit flip %d emitted %d packets before erroring", name, i, emitted)
			}
		}
	}
}

// TestV2TruncationsRejected cuts every v2 frame shape at every length.
func TestV2TruncationsRejected(t *testing.T) {
	for name, frame := range v2Corpus() {
		for n := 0; n < len(frame); n++ {
			if err := DecodeFrameV2(frame[:n], func(*Packet) {
				t.Fatalf("%s: truncation to %d emitted a packet", name, n)
			}); err == nil {
				t.Fatalf("%s: truncation to %d accepted", name, n)
			}
		}
	}
}

// TestV2StrictDecoderRejectsV1: a v2 session never falls back to the
// checksum-less v1 path, so a version byte flipped in flight cannot
// demote a frame.
func TestV2StrictDecoderRejectsV1(t *testing.T) {
	p := &Packet{Type: TypeAck, MsgID: 1, Seq: 17, Payload: []byte("v1 payload")}
	if err := DecodeFrameV2(p.Encode(), func(*Packet) {
		t.Fatal("strict decoder emitted a v1 packet")
	}); err != ErrBadVersion {
		t.Fatalf("strict decode of v1: err = %v, want ErrBadVersion", err)
	}
}

// TestDecodePayloadAliasesInput pins the documented borrow contract:
// Decode's payload aliases the input buffer, Clone's does not. A transport recycling its receive buffer relies on exactly
// this distinction.
func TestDecodePayloadAliasesInput(t *testing.T) {
	buf := (&Packet{Type: TypeData, Seq: 1, Aux: 0, Payload: []byte("original")}).Encode()
	borrowed, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	owned := borrowed.Clone()
	// The transport recycles the buffer for the next datagram.
	for i := range buf {
		buf[i] = 0xAA
	}
	if string(borrowed.Payload) == "original" {
		t.Fatal("Decode no longer borrows; the aliasing contract (and its doc) changed")
	}
	if string(owned.Payload) != "original" {
		t.Fatal("Clone did not detach the payload from the decode buffer")
	}
}

// TestV2DecompressionBombRejected: a forged frame whose compressed
// payload inflates past the UDP maximum is dropped, not allocated.
func TestV2DecompressionBombRejected(t *testing.T) {
	huge := make([]byte, maxInflate+4096)
	frame := sealV2(nil, (&Packet{Type: TypeData, Seq: 1}).Encode(), WireCompressed, newFlateState().deflate(huge), 0)
	if err := DecodeFrameV2(frame, func(*Packet) {
		t.Fatal("bomb emitted a packet")
	}); err != ErrBadCompression {
		t.Fatalf("err = %v, want ErrBadCompression", err)
	}
}

// TestV2BadCarrierShapes: structurally broken carriers (empty, short
// length prefix, truncated inner, trailing garbage, nested v2 inner)
// are rejected whole even when the CRC is valid.
func TestV2BadCarrierShapes(t *testing.T) {
	outer := (&Packet{Type: TypeData}).Encode()
	inner := (&Packet{Type: TypeData, Seq: 1, Payload: []byte("x")}).Encode()
	lp := func(enc []byte) []byte {
		b := binary.BigEndian.AppendUint16(nil, uint16(len(enc)))
		return append(b, enc...)
	}
	v2inner, _ := EncodeV2(&Packet{Type: TypeData, Seq: 2}, 0)
	cases := map[string][]byte{
		"empty":           {},
		"short-prefix":    {0x00},
		"length-past-end": {0x00, 0xFF, Magic},
		"tiny-inner":      {0x00, 0x01, Magic},
		"trailing-byte":   append(lp(inner), 0x7F),
		"nested-v2":       lp(v2inner),
	}
	for name, payload := range cases {
		frame := sealV2(nil, outer, WireCarrier, payload, 0)
		if err := DecodeFrameV2(frame, func(*Packet) {
			t.Fatalf("%s: emitted a packet", name)
		}); err != ErrBadCarrier {
			t.Fatalf("%s: err = %v, want ErrBadCarrier", name, err)
		}
	}
}

// compressedFrame encodes a data packet whose payload is text repeated
// to 512 bytes, and fails the test unless the frame came out
// compressed.
func compressedFrame(t *testing.T, seq uint32, text string) []byte {
	t.Helper()
	frame, _ := EncodeV2(&Packet{Type: TypeData, MsgID: 1, Seq: seq,
		Payload: []byte(strings.Repeat(text, 512/len(text)+1)[:512])}, DefaultCompressThreshold)
	if WireFlags(frame[HeaderLenV2-1])&WireCompressed == 0 {
		t.Fatalf("frame %d did not compress", seq)
	}
	return frame
}

// freshInflate inflates a compressed frame's payload on a state that
// has never inflated anything, so no memo can answer.
func freshInflate(t *testing.T, frame []byte) []byte {
	t.Helper()
	out, err := newFlateState().inflate(frame[HeaderLenV2 : len(frame)-TrailerLen])
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), out...)
}

// TestInflateMemoInterleaved: decodes of two compressed frames in any
// order — alternating (every decode a memo miss) or repeated (a hit) —
// emit exactly what a fresh inflate of each frame gives.
func TestInflateMemoInterleaved(t *testing.T) {
	a := compressedFrame(t, 1, "GET /index.html 200 17ms\n")
	b := compressedFrame(t, 2, "POST /api/v1/items 201 4ms\n")
	want := map[*byte][]byte{&a[0]: freshInflate(t, a), &b[0]: freshInflate(t, b)}
	for i, f := range [][]byte{a, b, a, b, a, a, b, b, a} {
		got := decodeOne(t, f)
		if len(got) != 1 || !bytes.Equal(got[0].Payload, want[&f[0]]) {
			t.Fatalf("decode %d: payload differs from a fresh inflate of the same frame", i)
		}
	}
}

// TestInflateMemoKeysOnContent: the memo answers for the same bytes in
// any buffer and never for different bytes in the same buffer, which
// is what a transport recycling its receive buffer does.
func TestInflateMemoKeysOnContent(t *testing.T) {
	a := compressedFrame(t, 1, "GET /index.html 200 17ms\n")
	b := compressedFrame(t, 2, "POST /api/v1/items 201 4ms\n")
	payload := func(f []byte) []byte { return f[HeaderLenV2 : len(f)-TrailerLen] }
	st := newFlateState()
	buf := append([]byte(nil), payload(a)...)
	first, err := st.inflate(buf)
	if err != nil {
		t.Fatal(err)
	}
	again, err := st.inflate(append([]byte(nil), payload(a)...))
	if err != nil || &again[0] != &first[0] || !bytes.Equal(again, freshInflate(t, a)) {
		t.Fatalf("the same bytes in another buffer were not served from the memo (err %v)", err)
	}
	buf = append(buf[:0], payload(b)...) // recycle the receive buffer
	got, err := st.inflate(buf)
	if err != nil || !bytes.Equal(got, freshInflate(t, b)) {
		t.Fatalf("new bytes in the recycled buffer returned the memoised output (err %v)", err)
	}
	buf[len(buf)/2] ^= 0x10 // the same buffer, scribbled in place
	if got, err := st.inflate(buf); err == nil && bytes.Equal(got, freshInflate(t, b)) {
		t.Fatal("a scribbled input matched the memo")
	}
}

// TestInflateMemoKeepsGuards: once a frame is memoised, every guard
// still runs on every decode — a copy with a flipped trailer bit fails
// the CRC, and the failures that come after inflate (a bomb, a
// malformed carrier) fail every time, as they are never memoised.
func TestInflateMemoKeepsGuards(t *testing.T) {
	a := compressedFrame(t, 1, "GET /index.html 200 17ms\n")
	decodeOne(t, a)
	flipped := append([]byte(nil), a...)
	flipped[len(flipped)-1] ^= 0x01
	hdr := (&Packet{Type: TypeData, Seq: 1}).Encode()
	badCarrier := sealV2(nil, hdr, WireCarrier, bytes.Repeat([]byte{0xFF}, 256), DefaultCompressThreshold)
	if WireFlags(badCarrier[HeaderLenV2-1])&WireCompressed == 0 {
		t.Fatal("malformed carrier did not compress")
	}
	bomb := sealV2(nil, hdr, WireCompressed, newFlateState().deflate(make([]byte, maxInflate+4096)), 0)
	for name, c := range map[string]struct {
		frame []byte
		want  error
	}{
		"flipped trailer":     {flipped, ErrBadCRC},
		"decompression bomb":  {bomb, ErrBadCompression},
		"compressed carrier":  {badCarrier, ErrBadCarrier},
		"flate garbage":       {sealV2(nil, hdr, WireCompressed, []byte("not flate data"), 0), ErrBadCompression},
		"empty flate payload": {sealV2(nil, hdr, WireCompressed, nil, 0), ErrBadCompression},
	} {
		for i := 0; i < 2; i++ {
			if err := DecodeFrameV2(c.frame, func(*Packet) {
				t.Fatalf("%s: decode %d emitted a packet", name, i+1)
			}); err != c.want {
				t.Fatalf("%s: decode %d: err = %v, want %v", name, i+1, err, c.want)
			}
		}
		if got := decodeOne(t, a); !bytes.Equal(got[0].Payload, freshInflate(t, a)) {
			t.Fatalf("%s: the good frame decoded wrong after the failures", name)
		}
	}
}

// TestInflateMemoConcurrent: decoders on several goroutines share the
// flate free list, each state's memo serves whichever goroutine draws
// it, and every decode still emits its own frame's payload.
func TestInflateMemoConcurrent(t *testing.T) {
	frames := [][]byte{
		compressedFrame(t, 1, "GET /index.html 200 17ms\n"),
		compressedFrame(t, 2, "POST /api/v1/items 201 4ms\n"),
		compressedFrame(t, 3, "DELETE /api/v1/items/7 204 2ms\n"),
	}
	var want [][]byte
	for _, f := range frames {
		want = append(want, freshInflate(t, f))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := (i / (g + 1)) % len(frames) // runs of g+1 repeats: hits and misses
				if err := DecodeFrameV2(frames[k], func(p *Packet) {
					if !bytes.Equal(p.Payload, want[k]) {
						t.Errorf("goroutine %d, decode %d: payload of frame %d differs", g, i, k)
					}
				}); err != nil {
					t.Errorf("goroutine %d, decode %d: %v", g, i, err)
				}
			}
		}()
	}
	wg.Wait()
}
