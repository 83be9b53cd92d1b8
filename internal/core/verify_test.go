package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"rmcast/internal/packet"
)

// recordEnv is an Env that records every transmission by value, its
// payload copied: what a receiver says is part of what must not change
// when it verifies instead of copying.
type recordEnv struct{ sent []string }

func (e *recordEnv) Now() time.Duration { return 0 }
func (e *recordEnv) Send(to NodeID, p *packet.Packet) {
	e.sent = append(e.sent, fmt.Sprintf("%d %v %d %d %d %x", to, p.Type, p.MsgID, p.Seq, p.Aux, p.Payload))
}
func (e *recordEnv) Multicast(p *packet.Packet)             { e.Send(-1, p) }
func (e *recordEnv) SetTimer(time.Duration, func()) TimerID { return 0 }
func (e *recordEnv) CancelTimer(TimerID)                    {}
func (e *recordEnv) UserCopy(int)                           {}

// TestVerifyingReceiverMatchesCopying feeds one packet sequence to a
// receiver that copies every payload and to one that verifies against
// the message (VerifyAgainst): in order, with gaps, out of order under
// selective repeat, with corrupt bytes, geometry and session sizes, and
// duplicates. Both must deliver the same bytes and send the same
// packets, peer snapshots included; the verifier must leave the
// reference as it was and deliver the reference itself exactly when
// every payload matched it.
func TestVerifyingReceiverMatchesCopying(t *testing.T) {
	const pktSize, npkt = 100, 6 // 100 is no multiple of the pattern's 256-byte period
	msg := pattern(npkt*pktSize - 37)
	last := uint32(npkt - 1)
	good := func(seq uint32) *packet.Packet { return dataPacket(1, seq, pktSize, msg) }
	flipped := func(seq uint32, at int) *packet.Packet {
		p := good(seq)
		p.Payload = append([]byte(nil), p.Payload...)
		p.Payload[at] ^= 0x40
		return p
	}
	inOrder := func(from uint32) []*packet.Packet {
		var ps []*packet.Packet
		for seq := from; seq <= last; seq++ {
			ps = append(ps, good(seq))
		}
		return ps
	}
	seqs := func(list ...uint32) []*packet.Packet {
		var ps []*packet.Packet
		for _, seq := range list {
			ps = append(ps, good(seq))
		}
		return ps
	}
	cat := func(parts ...[]*packet.Packet) []*packet.Packet {
		var ps []*packet.Packet
		for _, p := range parts {
			ps = append(ps, p...)
		}
		return ps
	}
	one := func(p *packet.Packet) []*packet.Packet { return []*packet.Packet{p} }
	wrongAux := good(2)
	wrongAux.Aux += 3
	short := good(2)
	short.Payload = short.Payload[:pktSize-1]
	lastLong := good(last)
	lastLong.Payload = msg[int(last)*pktSize-1:]

	for _, tc := range []struct {
		name string
		arq  ARQMode
		size int // the session's size; 0 means len(msg)
		pkts []*packet.Packet
		same bool // every stored payload matches the message
	}{
		{name: "in order", pkts: inOrder(0), same: true},
		{name: "go-back-N gap and retransmit", pkts: cat(seqs(0, 1, 3, 4), inOrder(2)), same: true},
		{name: "selective out of order", arq: ARQSelective, pkts: seqs(0, 3, 5, 2, 1, 4), same: true},
		{name: "selective gap and retransmit", arq: ARQSelective, pkts: cat(seqs(4, 2), inOrder(0)), same: true},
		{name: "duplicates", pkts: cat(seqs(0, 1, 1, 0, 2, 2), inOrder(3), seqs(last, 0)), same: true},
		{name: "selective duplicates", arq: ARQSelective, pkts: cat(seqs(3, 3, 0, 0, 1, 3), inOrder(2)), same: true},
		{name: "wrong aux", pkts: cat(seqs(0, 1), one(wrongAux), inOrder(2)), same: true},
		{name: "wrong length", pkts: cat(seqs(0, 1), one(short), inOrder(2)), same: true},
		{name: "last packet too long", pkts: cat(inOrder(0)[:last], one(lastLong), seqs(last)), same: true},
		{name: "session of another size", size: int(last) * pktSize, pkts: inOrder(0)[:last]},
		{name: "flipped byte early", pkts: cat(one(flipped(0, 0)), inOrder(1))},
		{name: "flipped byte late", pkts: cat(inOrder(0)[:last], one(flipped(last, 20)))},
		{name: "flipped then retransmitted", pkts: cat(seqs(0, 1), one(flipped(2, 99)), inOrder(2))},
		{name: "selective flip below held packets", arq: ARQSelective,
			pkts: cat(seqs(0, 3, 5), one(flipped(1, 50)), seqs(2, 4))},
		{name: "selective flip in a held packet", arq: ARQSelective,
			pkts: cat(seqs(0), one(flipped(4, 7)), seqs(2, 1, 3, 5))},
		{name: "selective flip, last packet first", arq: ARQSelective,
			pkts: cat(one(flipped(last, 1)), inOrder(0))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			size := tc.size
			if size == 0 {
				size = len(msg)
			}
			ref := append([]byte(nil), msg...)
			type outcome struct {
				delivered [][]byte
				aliased   bool
				env       recordEnv
			}
			drive := func(verify bool) *outcome {
				o := &outcome{}
				cfg := Config{Protocol: ProtoNAK, NumReceivers: 3, PacketSize: pktSize, WindowSize: npkt,
					PollInterval: 2, ARQ: tc.arq}
				r, err := NewReceiver(&o.env, cfg, 1, func(b []byte) {
					o.aliased = len(b) > 0 && &b[0] == &ref[0]
					o.delivered = append(o.delivered, append([]byte(nil), b...))
				})
				if err != nil {
					t.Fatal(err)
				}
				if verify {
					r.VerifyAgainst(ref)
				}
				r.OnPacket(SenderID, &packet.Packet{Type: packet.TypeAllocReq, MsgID: 1, Aux: uint32(size)})
				for _, p := range tc.pkts {
					q := *p // the receiver sees each transmission once
					r.OnPacket(SenderID, &q)
				}
				// Serve rank 2 the in-order prefix: snapshots read the
				// assembled bytes, ref while the session verifies.
				r.OnPacket(SenderID, &packet.Packet{Type: packet.TypeSnapDel, MsgID: 1, Seq: npkt, Aux: 2})
				r.Release()
				if r.active || r.buf != nil || r.msg != nil {
					t.Fatalf("verify=%v: Release left active=%v buf=%v msg=%v", verify, r.active, r.buf != nil, r.msg != nil)
				}
				return o
			}
			cp, vf := drive(false), drive(true)
			if !bytes.Equal(ref, msg) {
				t.Fatal("the verifying receiver wrote to its reference")
			}
			if len(cp.delivered) != 1 || len(vf.delivered) != 1 {
				t.Fatalf("deliveries: copying %d, verifying %d; want 1 each", len(cp.delivered), len(vf.delivered))
			}
			if !bytes.Equal(cp.delivered[0], vf.delivered[0]) {
				t.Fatalf("delivered bytes differ:\n copying   %x\n verifying %x", cp.delivered[0], vf.delivered[0])
			}
			if tc.same != bytes.Equal(cp.delivered[0], msg) {
				t.Fatalf("the case expects a match=%v delivery, the copying receiver disagrees", tc.same)
			}
			if vf.aliased != tc.same {
				t.Fatalf("the verifying receiver delivered the reference itself: %v, want %v", vf.aliased, tc.same)
			}
			if n := len(vf.env.sent); n == 0 || !strings.Contains(vf.env.sent[n-1], " snap ") {
				t.Fatal("the delegation served no snapshot")
			}
			if a, b := cp.env.sent, vf.env.sent; fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("sent packets differ:\n copying   %q\n verifying %q", a, b)
			}
		})
	}
}

// TestVerifyingReceiverCatchesUnstoredSlot: when a packet is taken as
// stored without store having compared it — a slip in the selective
// repeat walk, or a store that reports success without doing its work,
// simulated here by advancing the receiver's state by hand — the
// delivery must neither be the reference nor read as the message, as a
// copying receiver's unwritten slot would not. A later mismatch must
// not paper over the slot either, when it materialises the session.
func TestVerifyingReceiverCatchesUnstoredSlot(t *testing.T) {
	const pktSize, npkt = 100, 6
	msg := pattern(npkt*pktSize - 37)
	good := func(seq uint32) func(*Receiver) {
		return func(r *Receiver) { r.OnPacket(SenderID, dataPacket(1, seq, pktSize, msg)) }
	}
	flipped := func(seq uint32) func(*Receiver) {
		return func(r *Receiver) {
			p := dataPacket(1, seq, pktSize, msg)
			p.Payload = append([]byte(nil), p.Payload...)
			p.Payload[0] ^= 0x40
			r.OnPacket(SenderID, p)
		}
	}
	skipNext := func(r *Receiver) { r.next++ }         // go-back-N: slot next taken unwritten
	skipHeld := func(r *Receiver) { r.have[2] = true } // selective repeat: slot 2 held unwritten
	for _, tc := range []struct {
		name  string
		arq   ARQMode
		steps []func(*Receiver)
	}{
		{name: "go-back-N", steps: []func(*Receiver){good(0), good(1), skipNext, good(3), good(4), good(5)}},
		{name: "selective repeat", arq: ARQSelective,
			steps: []func(*Receiver){good(0), skipHeld, good(4), good(1), good(3), good(5)}},
		{name: "then a mismatch", steps: []func(*Receiver){good(0), good(1), skipNext, flipped(3), good(3), good(4), good(5)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := append([]byte(nil), msg...)
			var got []byte
			deliveries := 0
			cfg := Config{Protocol: ProtoNAK, NumReceivers: 3, PacketSize: pktSize, WindowSize: npkt,
				PollInterval: 2, ARQ: tc.arq}
			r, err := NewReceiver(&sinkEnv{}, cfg, 1, func(b []byte) {
				deliveries++
				if len(b) > 0 && &b[0] == &ref[0] {
					t.Error("delivered the reference itself")
				}
				got = append([]byte(nil), b...)
			})
			if err != nil {
				t.Fatal(err)
			}
			r.VerifyAgainst(ref)
			r.OnPacket(SenderID, &packet.Packet{Type: packet.TypeAllocReq, MsgID: 1, Aux: uint32(len(msg))})
			for _, step := range tc.steps {
				step(r)
			}
			if deliveries != 1 {
				t.Fatalf("%d deliveries, want 1", deliveries)
			}
			if slot := got[2*pktSize : 3*pktSize]; bytes.Equal(slot, msg[2*pktSize:3*pktSize]) {
				t.Fatal("the slot never written reads as the message's bytes")
			}
			if !bytes.Equal(ref, msg) {
				t.Fatal("the verifying receiver wrote to its reference")
			}
		})
	}
}

// TestVerifyingStoreZeroAllocs: a verifying receiver accepts, compares
// and acknowledges an in-order data packet without allocating, and
// holds no message buffer while every payload matches.
func TestVerifyingStoreZeroAllocs(t *testing.T) {
	const pktSize, runs = 64, 500
	msg := pattern((runs + 8) * pktSize)
	wire := append([]byte(nil), msg...) // the payloads arrive in bytes of their own
	env := &sinkEnv{}
	r, err := NewReceiver(env, Config{Protocol: ProtoACK, NumReceivers: 1, PacketSize: pktSize, WindowSize: 4}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.VerifyAgainst(msg)
	r.OnPacket(SenderID, &packet.Packet{Type: packet.TypeAllocReq, MsgID: 1, Aux: uint32(len(msg))})
	var p packet.Packet
	seq := uint32(0)
	allocs := testing.AllocsPerRun(runs, func() {
		p = *dataPacket(1, seq, pktSize, wire)
		r.OnPacket(SenderID, &p)
		seq++
	})
	if allocs != 0 {
		t.Fatalf("a verified data packet allocated %.1f objects, want 0", allocs)
	}
	if r.next != seq || r.verified != seq || env.last.Type != packet.TypeAck || env.last.Seq != seq {
		t.Fatalf("the measured loop did not verify and acknowledge: next=%d verified=%d of %d, last %v",
			r.next, r.verified, seq, &env.last)
	}
	if r.msg != nil {
		t.Fatal("a verifying session took a message buffer")
	}
}
