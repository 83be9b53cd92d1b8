package packet

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := &Packet{
		Type:    TypeData,
		Flags:   FlagPoll | FlagLast,
		MsgID:   42,
		Seq:     1234567,
		Aux:     89,
		Payload: []byte("payload bytes"),
	}
	got, err := Decode(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != p.Type || got.Flags != p.Flags || got.MsgID != p.MsgID ||
		got.Seq != p.Seq || got.Aux != p.Aux || !bytes.Equal(got.Payload, p.Payload) {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, p)
	}
}

func TestDecodeErrors(t *testing.T) {
	valid := (&Packet{Type: TypeAck, Seq: 1}).Encode()

	if _, err := Decode(valid[:HeaderLen-1]); err != ErrTruncated {
		t.Errorf("truncated: err = %v, want ErrTruncated", err)
	}

	bad := append([]byte(nil), valid...)
	bad[0] = 0x00
	if _, err := Decode(bad); err != ErrBadMagic {
		t.Errorf("bad magic: err = %v, want ErrBadMagic", err)
	}

	bad = append([]byte(nil), valid...)
	bad[1] = 99
	if _, err := Decode(bad); err != ErrBadVersion {
		t.Errorf("bad version: err = %v, want ErrBadVersion", err)
	}

	bad = append([]byte(nil), valid...)
	bad[2] = 250
	if _, err := Decode(bad); err != ErrBadType {
		t.Errorf("bad type: err = %v, want ErrBadType", err)
	}

	bad = append([]byte(nil), valid...)
	bad[2] = 0
	if _, err := Decode(bad); err != ErrBadType {
		t.Errorf("zero type: err = %v, want ErrBadType", err)
	}
}

func TestEmptyPayload(t *testing.T) {
	p := &Packet{Type: TypeAck, Seq: 7}
	if p.WireLen() != HeaderLen {
		t.Errorf("WireLen = %d, want %d", p.WireLen(), HeaderLen)
	}
	got, err := Decode(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Payload) != 0 {
		t.Errorf("payload = %v, want empty", got.Payload)
	}
}

func TestEncodeToTooSmallPanics(t *testing.T) {
	p := &Packet{Type: TypeData, Payload: make([]byte, 100)}
	defer func() {
		if recover() == nil {
			t.Fatal("EncodeTo with a short buffer did not panic")
		}
	}()
	p.EncodeTo(make([]byte, 10))
}

func TestTypeString(t *testing.T) {
	if TypeData.String() != "data" || TypeNak.String() != "nak" {
		t.Error("type names wrong")
	}
	if Type(200).String() == "" {
		t.Error("unknown type produced empty string")
	}
}

// Property: every well-formed packet round-trips exactly.
func TestRoundTripQuick(t *testing.T) {
	f := func(ty uint8, flags uint8, src uint16, msgID, seq, aux uint32, payload []byte) bool {
		p := &Packet{
			Type:    Type(ty%6) + 1, // valid types only
			Flags:   Flags(flags),
			Src:     src,
			MsgID:   msgID,
			Seq:     seq,
			Aux:     aux,
			Payload: payload,
		}
		got, err := Decode(p.Encode())
		if err != nil {
			return false
		}
		return got.Type == p.Type && got.Flags == p.Flags && got.Src == p.Src &&
			got.MsgID == p.MsgID && got.Seq == p.Seq && got.Aux == p.Aux &&
			bytes.Equal(got.Payload, p.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Decode never panics on arbitrary input.
func TestDecodeNeverPanicsQuick(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = Decode(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestPeekSrc: the source rank is read from v1 and v2 frames alike, and
// only after the length, magic and version guards pass.
func TestPeekSrc(t *testing.T) {
	p := Packet{Type: TypeAck, Src: 513, MsgID: 7, Seq: 3}
	v1 := p.Encode()
	v2, _ := EncodeV2(&p, DefaultCompressThreshold)
	badMagic := append([]byte(nil), v1...)
	badMagic[0] ^= 0xFF
	badVersion := append([]byte(nil), v1...)
	badVersion[1] = 9
	for _, c := range []struct {
		what  string
		frame []byte
		ok    bool
	}{
		{"v1", v1, true},
		{"v2", v2, true},
		{"truncated", v1[:HeaderLen-1], false},
		{"bad magic", badMagic, false},
		{"bad version", badVersion, false},
	} {
		src, ok := PeekSrc(c.frame)
		if ok != c.ok || (ok && src != p.Src) {
			t.Errorf("%s: PeekSrc = %d, %v; want %d, %v", c.what, src, ok, p.Src, c.ok)
		}
	}
}
