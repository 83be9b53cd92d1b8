package packet

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzDecodeFrame feeds arbitrary bytes through both frame decoders —
// the strict v2 DecodeFrameV2 and the v1 Decode — asserting neither
// ever panics, every accepted frame emits only valid, re-encodable
// packets, and decoding the same bytes a second time (through the
// inflate memo, for a compressed frame) gives the same error and the
// same packets. The seed corpus covers each v2 frame
// shape (plain, compressed, carrier, compressed carrier), v1 frames,
// and each rejection class (truncations, corrupted trailers, flipped
// version bytes, unknown wire flags, malformed carriers).
func FuzzDecodeFrame(f *testing.F) {
	// Valid v2 frames of every shape.
	plain, _ := EncodeV2(&Packet{Type: TypeData, MsgID: 3, Seq: 5, Aux: 1000,
		Payload: []byte("plain v2 payload")}, 0)
	f.Add(plain)
	compressed, _ := EncodeV2(&Packet{Type: TypeData, MsgID: 3, Seq: 6,
		Payload: []byte(strings.Repeat("compressible! ", 30))}, DefaultCompressThreshold)
	f.Add(compressed)
	for _, min := range []int{0, DefaultCompressThreshold} {
		var frame []byte
		b := &Batcher{MinCompress: min, Emit: func(fr []byte, _, _ int) {
			frame = append([]byte(nil), fr...)
		}}
		for i := 0; i < 4; i++ {
			b.Add(&Packet{Type: TypeData, MsgID: 3, Seq: uint32(10 + i),
				Payload: []byte(strings.Repeat("log line\n", 10))})
		}
		b.Flush()
		f.Add(frame)
	}
	// A v1 frame (accepted by Decode, rejected by DecodeFrameV2).
	f.Add((&Packet{Type: TypeAck, Seq: 7}).Encode())
	// Rejection classes.
	f.Add(plain[:HeaderLenV2])               // truncated before trailer
	f.Add(plain[:len(plain)-1])              // truncated trailer
	corrupt := append([]byte(nil), plain...) // corrupted payload byte
	corrupt[HeaderLenV2] ^= 0x40
	f.Add(corrupt)
	demoted := append([]byte(nil), plain...) // version byte flipped to 1
	demoted[1] = Version
	f.Add(demoted)
	badwf := append([]byte(nil), plain...) // unknown wire flag
	badwf[18] = 0x80
	f.Add(badwf)
	// Carrier with a valid CRC but garbage payload structure.
	hdr := (&Packet{Type: TypeData}).Encode()
	f.Add(sealV2(nil, hdr, WireCarrier, []byte{0xFF, 0xFF, 0x00}, 0))
	// Compressed flag over raw bytes (flate garbage).
	f.Add(sealV2(nil, hdr, WireCompressed, []byte("not flate data"), 0))
	f.Add([]byte{})
	f.Add([]byte{Magic, Version2})

	f.Fuzz(func(t *testing.T, b []byte) {
		decodeV1 := func(b []byte, emit func(*Packet)) error {
			p, err := Decode(b)
			if err == nil {
				emit(p)
			}
			return err
		}
		for _, decode := range []func([]byte, func(*Packet)) error{decodeV1, DecodeFrameV2} {
			var emitted, again []*Packet
			err := decode(b, func(p *Packet) { emitted = append(emitted, p.Clone()) })
			if err2 := decode(b, func(p *Packet) { again = append(again, p.Clone()) }); err2 != err || len(again) != len(emitted) {
				t.Fatalf("second decode gave %d packets and %v, first %d and %v", len(again), err2, len(emitted), err)
			}
			for i := range again {
				if !samePacket(again[i], emitted[i]) {
					t.Fatalf("second decode changed packet %d:\n first  %+v\n second %+v", i, emitted[i], again[i])
				}
			}
			if err != nil {
				if len(emitted) != 0 {
					t.Fatalf("emitted %d packets before erroring with %v", len(emitted), err)
				}
				continue
			}
			if len(emitted) == 0 {
				t.Fatal("accepted a frame but emitted nothing")
			}
			for _, p := range emitted {
				if !p.Type.Valid() {
					t.Fatalf("emitted packet with invalid type %d", p.Type)
				}
				// Every emitted packet must survive a v2 round trip.
				frame, _ := EncodeV2(p, 0)
				var back *Packet
				if err := DecodeFrameV2(frame, func(q *Packet) { back = q.Clone() }); err != nil {
					t.Fatalf("re-encoding an emitted packet failed to decode: %v", err)
				}
				if back.Type != p.Type || back.Flags != p.Flags || back.Src != p.Src ||
					back.MsgID != p.MsgID || back.Seq != p.Seq || back.Aux != p.Aux ||
					!bytes.Equal(back.Payload, p.Payload) {
					t.Fatalf("round trip changed the packet:\n in  %+v\n out %+v", p, back)
				}
			}
		}
	})
}
