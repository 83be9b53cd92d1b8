package core

import (
	"bytes"
	"testing"
	"time"

	"rmcast/internal/packet"
)

// sinkEnv is an Env that goes nowhere: it counts transmissions and
// remembers the last one by value, which is all the borrow rule allows
// an Env to keep.
type sinkEnv struct {
	sends int
	last  packet.Packet
}

func (e *sinkEnv) Now() time.Duration { return 0 }
func (e *sinkEnv) Send(_ NodeID, p *packet.Packet) {
	e.sends++
	e.last = *p
}
func (e *sinkEnv) Multicast(p *packet.Packet)             { e.Send(0, p) }
func (e *sinkEnv) SetTimer(time.Duration, func()) TimerID { return 0 }
func (e *sinkEnv) CancelTimer(TimerID)                    {}
func (e *sinkEnv) UserCopy(int)                           {}

func dataPacket(msgID, seq uint32, pktSize int, msg []byte) *packet.Packet {
	off := int(seq) * pktSize
	end := min(off+pktSize, len(msg))
	return &packet.Packet{Type: packet.TypeData, MsgID: msgID, Seq: seq, Aux: uint32(off), Payload: msg[off:end]}
}

// feed runs one whole lossless session of msg through r.
func feed(r *Receiver, msgID uint32, pktSize int, msg []byte) {
	r.OnPacket(SenderID, &packet.Packet{Type: packet.TypeAllocReq, MsgID: msgID, Aux: uint32(len(msg))})
	for seq := uint32(0); int(seq)*pktSize < len(msg); seq++ {
		r.OnPacket(SenderID, dataPacket(msgID, seq, pktSize, msg))
	}
}

// TestStoreRefusesBadGeometry pins the one place a data packet may
// land: offset Seq×PacketSize, a full packet unless it is the last. A
// packet whose offset word or length disagrees with its sequence is
// dropped — not copied wherever Aux points — and the session still
// completes once the right packet arrives.
func TestStoreRefusesBadGeometry(t *testing.T) {
	const pktSize = 4
	msg := []byte("abcdefghij") // packets: abcd efgh ij
	for _, arq := range []ARQMode{ARQGoBackN, ARQSelective} {
		for name, bad := range map[string]*packet.Packet{
			"wrong offset":      {Type: packet.TypeData, MsgID: 1, Seq: 1, Aux: 0, Payload: []byte("efgh")},
			"offset past seq":   {Type: packet.TypeData, MsgID: 1, Seq: 1, Aux: 6, Payload: []byte("efgh")},
			"short payload":     {Type: packet.TypeData, MsgID: 1, Seq: 1, Aux: 4, Payload: []byte("efg")},
			"long payload":      {Type: packet.TypeData, MsgID: 1, Seq: 1, Aux: 4, Payload: []byte("efghi")},
			"empty payload":     {Type: packet.TypeData, MsgID: 1, Seq: 1, Aux: 4},
			"last packet long":  {Type: packet.TypeData, MsgID: 1, Seq: 2, Aux: 8, Payload: []byte("ijk")},
			"last packet short": {Type: packet.TypeData, MsgID: 1, Seq: 2, Aux: 8, Payload: []byte("i")},
			"last packet full":  {Type: packet.TypeData, MsgID: 1, Seq: 2, Aux: 8, Payload: []byte("ijkl")},
		} {
			env := &sinkEnv{}
			var delivered []byte
			r, err := NewReceiver(env, Config{Protocol: ProtoACK, NumReceivers: 1, PacketSize: pktSize,
				WindowSize: 4, ARQ: arq}, 1, func(b []byte) { delivered = append([]byte(nil), b...) })
			if err != nil {
				t.Fatal(err)
			}
			r.OnPacket(SenderID, &packet.Packet{Type: packet.TypeAllocReq, MsgID: 1, Aux: uint32(len(msg))})
			r.OnPacket(SenderID, dataPacket(1, 0, pktSize, msg))
			if bad.Seq == 2 {
				r.OnPacket(SenderID, dataPacket(1, 1, pktSize, msg))
			}
			before := append([]byte(nil), r.buf...)
			next := r.next
			r.OnPacket(SenderID, bad)
			if !bytes.Equal(r.buf, before) || r.next != next {
				t.Errorf("%v/%s: the packet was stored (buf %q → %q, next %d → %d)", arq, name, before, r.buf, next, r.next)
			}
			for seq := bad.Seq; seq < 3; seq++ {
				r.OnPacket(SenderID, dataPacket(1, seq, pktSize, msg))
			}
			if !bytes.Equal(delivered, msg) {
				t.Errorf("%v/%s: delivered %q after the retransmission, want %q", arq, name, delivered, msg)
			}
		}
	}
}

// TestReleasedBufferReturnsZeroed is the recycling contract: a buffer
// that held message M and was released reaches the next receiver that
// allocates the same size as all zeros — indistinguishable from make —
// and Release is a no-op before any session and the second time.
func TestReleasedBufferReturnsZeroed(t *testing.T) {
	const pktSize = 512
	msg := pattern(16 * pktSize)
	cfg := Config{Protocol: ProtoACK, NumReceivers: 1, PacketSize: pktSize, WindowSize: 4}
	newRcv := func() *Receiver {
		r, err := NewReceiver(&sinkEnv{}, cfg, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	newRcv().Release() // before any session

	a := newRcv()
	feed(a, 1, pktSize, msg)
	if !a.Delivered() || !bytes.Equal(a.buf, msg) {
		t.Fatal("the first receiver did not assemble the message")
	}
	held := &a.buf[0]
	a.Release()
	a.Release() // twice
	if a.buf != nil || a.active {
		t.Fatal("Release left the session active")
	}
	a.OnPacket(SenderID, dataPacket(1, 0, pktSize, msg)) // a late packet finds no session

	b := newRcv()
	b.OnPacket(SenderID, &packet.Packet{Type: packet.TypeAllocReq, MsgID: 2, Aux: uint32(len(msg))})
	if &b.buf[0] != held {
		t.Fatal("a released buffer did not reach the next session: recycling is lost")
	}
	if len(b.buf) != len(msg) || !bytes.Equal(b.buf, make([]byte, len(msg))) {
		t.Fatalf("the recycled buffer is not %d zeros", len(msg))
	}
	b.Release()

	// A receiver that lives across messages reuses its own buffer, and
	// the same rule holds: message 2's buffer starts as zeros.
	r := newRcv()
	feed(r, 1, pktSize, msg)
	held = &r.buf[0]
	r.OnPacket(SenderID, &packet.Packet{Type: packet.TypeAllocReq, MsgID: 2, Aux: uint32(len(msg) / 2)})
	if &r.buf[0] != held || !bytes.Equal(r.buf, make([]byte, len(msg)/2)) {
		t.Fatal("the receiver's second session did not start on its own buffer, zeroed")
	}
}

// TestReceiverDataPathZeroAllocs: accepting an in-order data packet and
// acknowledging it allocates nothing — the payload lands in the session
// buffer and the acknowledgment is built in the receiver's own packet.
func TestReceiverDataPathZeroAllocs(t *testing.T) {
	const pktSize, runs = 64, 500
	msg := pattern((runs + 8) * pktSize)
	env := &sinkEnv{}
	r, err := NewReceiver(env, Config{Protocol: ProtoACK, NumReceivers: 1, PacketSize: pktSize, WindowSize: 4}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.OnPacket(SenderID, &packet.Packet{Type: packet.TypeAllocReq, MsgID: 1, Aux: uint32(len(msg))})
	var p packet.Packet
	seq := uint32(0)
	allocs := testing.AllocsPerRun(runs, func() {
		p = *dataPacket(1, seq, pktSize, msg)
		r.OnPacket(SenderID, &p)
		seq++
	})
	if allocs != 0 {
		t.Fatalf("an accepted data packet allocated %.1f objects, want 0", allocs)
	}
	if r.next != seq || env.sends != int(seq)+1 || env.last.Type != packet.TypeAck || env.last.Seq != seq {
		t.Fatalf("the measured loop did not accept and acknowledge: next=%d of %d, %d sends, last %v", r.next, seq, env.sends, &env.last)
	}
}

// retainingReceiver builds a receiver whose onDeliver retains every
// message it delivers into *kept.
func retainingReceiver(t *testing.T, pktSize int, kept *[]*Message) *Receiver {
	t.Helper()
	var r *Receiver
	r, err := NewReceiver(&sinkEnv{}, Config{Protocol: ProtoACK, NumReceivers: 1, PacketSize: pktSize, WindowSize: 4}, 1,
		func([]byte) { *kept = append(*kept, r.Retain()) })
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRetainedMessageOutlivesSession: a message retained in onDeliver
// keeps its bytes through the receiver's next session, which assembles
// a different pattern in a buffer of its own; once nobody retains the
// buffer, the next session reuses it.
func TestRetainedMessageOutlivesSession(t *testing.T) {
	const pktSize = 512
	a := pattern(8 * pktSize)
	b := bytes.Repeat([]byte{0xA5}, len(a))
	var kept []*Message
	r := retainingReceiver(t, pktSize, &kept)
	feed(r, 1, pktSize, a)
	if len(kept) != 1 || !bytes.Equal(kept[0].Bytes(), a) {
		t.Fatal("the first message was not delivered and retained")
	}
	feed(r, 2, pktSize, b)
	if !r.Delivered() || !bytes.Equal(r.buf, b) {
		t.Fatal("the second session did not assemble its message")
	}
	if &r.buf[0] == &kept[0].Bytes()[0] {
		t.Fatal("the second session assembled into the retained buffer")
	}
	if !bytes.Equal(kept[0].Bytes(), a) {
		t.Fatal("the retained message changed under the receiver's next session")
	}
	for _, m := range kept {
		m.Release()
	}

	// Nobody holds the second session's buffer now: the third reuses it.
	held := &r.buf[0]
	r.OnPacket(SenderID, &packet.Packet{Type: packet.TypeAllocReq, MsgID: 3, Aux: uint32(len(a))})
	if &r.buf[0] != held || !bytes.Equal(r.buf, make([]byte, len(a))) {
		t.Fatal("an unretained buffer was not reused, zeroed, by the next session")
	}
}

// TestRetainedMessageReleasedTwicePanics: releasing one reference twice
// takes the count below zero, which panics instead of handing a buffer
// to the pool twice.
func TestRetainedMessageReleasedTwicePanics(t *testing.T) {
	const pktSize = 64
	var kept []*Message
	r := retainingReceiver(t, pktSize, &kept)
	feed(r, 1, pktSize, pattern(4*pktSize))
	r.Release()
	kept[0].Release() // the last reference: back to the pool
	defer func() {
		if recover() == nil {
			t.Fatal("a second Release of one reference did not panic")
		}
	}()
	kept[0].Release()
}

// TestRetainedMessageSurvivesReceiverRelease: Receiver.Release drops
// only the receiver's reference, so a message retained from it stays
// intact while other sessions draw buffers from the pool.
func TestRetainedMessageSurvivesReceiverRelease(t *testing.T) {
	const pktSize = 512
	a := pattern(8 * pktSize)
	var kept []*Message
	r := retainingReceiver(t, pktSize, &kept)
	feed(r, 1, pktSize, a)
	r.Release()
	if r.buf != nil || r.active {
		t.Fatal("Release left the session active")
	}
	b := bytes.Repeat([]byte{0x5A}, len(a))
	for id := uint32(2); id < 6; id++ {
		var more []*Message
		other := retainingReceiver(t, pktSize, &more)
		feed(other, id, pktSize, b)
		if &other.buf[0] == &kept[0].Bytes()[0] {
			t.Fatal("another receiver drew the retained buffer from the pool")
		}
		more[0].Release()
		other.Release()
	}
	if !bytes.Equal(kept[0].Bytes(), a) {
		t.Fatal("the retained message changed after Receiver.Release")
	}
	kept[0].Release()
}

// TestMessageFreeListIsCapped: releasing far more message buffers than
// msgBufsCap holds — 4 096 of 64 KiB, what internal/check's 4 096-receiver
// run releases — leaves at most msgBufsCap bytes on the free list, and
// the list still serves the buffers it kept. The buffers share one
// backing array, so the test itself allocates 64 KiB, not 256 MiB.
func TestMessageFreeListIsCapped(t *testing.T) {
	var saved []*Message
	for m, ok := msgBufs.Get(); ok; m, ok = msgBufs.Get() {
		saved = append(saved, m)
	}
	if left := msgBufs.Bytes(); left != 0 {
		t.Fatalf("an emptied free list counts %d bytes", left)
	}
	t.Cleanup(func() {
		for msgBufs.Len() > 0 {
			msgBufs.Get()
		}
		for i := len(saved) - 1; i >= 0; i-- {
			msgBufs.Put(saved[i])
		}
	})

	const n, size = 4096, 64 << 10
	backing := make([]byte, size)
	for i := 0; i < n; i++ {
		m := &Message{b: backing}
		m.refs.Store(1)
		m.Release()
	}
	held, counted := msgBufs.Len(), msgBufs.Bytes()
	if held != msgBufsCap/size {
		t.Fatalf("free list kept %d of %d buffers; want %d, as many as fit the cap", held, n, msgBufsCap/size)
	}
	total := 0
	for i := 0; i < held; i++ {
		m, ok := msgBufs.Get()
		if !ok {
			t.Fatalf("free list ran dry after %d of its %d buffers", i, held)
		}
		total += cap(m.b)
	}
	if total > msgBufsCap || counted != total {
		t.Fatalf("free list held %d buffers, %d MiB (counted %d MiB); want at most %d MiB",
			held, total>>20, counted>>20, msgBufsCap>>20)
	}
	if left := msgBufs.Bytes(); left != 0 {
		t.Fatalf("an empty free list counts %d bytes", left)
	}
}
