package core

import (
	"bytes"
	"testing"
	"time"

	"rmcast/internal/packet"
	"rmcast/internal/sim"
)

// reuseNet is a mockNet variant that models a transport recycling one
// receive buffer: every delivery decodes from the same scratch slice,
// and the moment the endpoint's handler returns the buffer is scribbled
// over — exactly what a pooled-frame or recvmmsg-ring transport does to
// a handler that retains packet.Decode's borrowed payload instead of
// copying it. Any endpoint violating the ownership contract delivers a
// corrupted message here.
type reuseNet struct {
	s         *sim.Simulator
	endpoints map[NodeID]Endpoint
	scratch   []byte
}

func (m *reuseNet) transmit(from, to NodeID, p *packet.Packet) {
	enc := p.Encode() // sender side: fresh buffer, as the transports do
	m.s.After(50*time.Microsecond, func() {
		ep := m.endpoints[to]
		if ep == nil {
			return
		}
		m.scratch = append(m.scratch[:0], enc...)
		q, err := packet.Decode(m.scratch)
		if err != nil {
			panic("reuseNet: codec round trip failed: " + err.Error())
		}
		ep.OnPacket(from, q)
		// The handler has returned; the transport reuses the buffer.
		for i := range m.scratch {
			m.scratch[i] = 0xDB
		}
	})
}

type reuseEnv struct {
	net  *reuseNet
	self NodeID
}

func (e *reuseEnv) Now() time.Duration { return e.net.s.Now() }

func (e *reuseEnv) Send(to NodeID, p *packet.Packet) { e.net.transmit(e.self, to, p) }

func (e *reuseEnv) Multicast(p *packet.Packet) {
	for id := range e.net.endpoints {
		if id != e.self {
			e.net.transmit(e.self, id, p)
		}
	}
}

func (e *reuseEnv) SetTimer(d time.Duration, fn func()) TimerID {
	return TimerID(e.net.s.After(d, fn))
}

func (e *reuseEnv) CancelTimer(id TimerID) { e.net.s.Cancel(sim.EventID(id)) }

func (e *reuseEnv) UserCopy(int) {}

// TestDecodeBufferReuseDoesNotCorruptDelivery pins the Decode ownership
// contract end to end: a full transfer over a buffer-recycling
// transport still delivers byte-identical messages, proving every
// protocol endpoint copies borrowed payloads before its handler
// returns. Selective repeat is the sharper variant — its out-of-order
// store path handles payloads the Go-Back-N path never sees.
func TestDecodeBufferReuseDoesNotCorruptDelivery(t *testing.T) {
	for _, arq := range []ARQMode{ARQGoBackN, ARQSelective} {
		t.Run(arq.String(), func(t *testing.T) {
			m := &reuseNet{s: sim.New(), endpoints: make(map[NodeID]Endpoint)}
			cfg := Config{Protocol: ProtoACK, NumReceivers: 3, PacketSize: 512,
				WindowSize: 4, ARQ: arq}
			msg := pattern(8192)
			delivered := make([][]byte, cfg.NumReceivers+1)
			done := false
			snd, err := NewSender(&reuseEnv{net: m, self: SenderID}, cfg, func() { done = true })
			if err != nil {
				t.Fatal(err)
			}
			m.endpoints[SenderID] = snd
			for r := 1; r <= cfg.NumReceivers; r++ {
				r := r
				rcv, err := NewReceiver(&reuseEnv{net: m, self: NodeID(r)}, cfg, NodeID(r),
					func(b []byte) { delivered[r] = append([]byte(nil), b...) })
				if err != nil {
					t.Fatal(err)
				}
				m.endpoints[NodeID(r)] = rcv
			}
			m.s.After(0, func() { snd.Start(msg) })
			for m.s.Pending() > 0 && !done {
				m.s.Step()
				if m.s.Now() > 10*time.Second {
					t.Fatal("transfer stalled")
				}
			}
			if !done {
				t.Fatal("sender never completed")
			}
			for r := 1; r <= cfg.NumReceivers; r++ {
				if !bytes.Equal(delivered[r], msg) {
					t.Fatalf("receiver %d delivered a corrupted message: "+
						"an endpoint retained a borrowed payload past its handler", r)
				}
			}
		})
	}
}

// TestSelectiveRepeatOutOfRangeSeq pins the onData sequence guard: after
// delivery completes, next == count, so a corrupt data packet with
// Seq == count used to pass the in-order test into accept, whose store
// indexed have[count] out of range and panicked the selective-repeat
// receiver. (store's offset check cannot catch it: a zero-payload
// packet with Aux == len(buf) passes.) The guard must also hold mid
// transfer for any Seq past the bitmap.
func TestSelectiveRepeatOutOfRangeSeq(t *testing.T) {
	m := newMockNet(1)
	cfg := Config{Protocol: ProtoACK, NumReceivers: 1, PacketSize: 4,
		WindowSize: 4, ARQ: ARQSelective}
	deliveries := 0
	rcv, err := NewReceiver(m.env(1), cfg, 1, func([]byte) { deliveries++ })
	if err != nil {
		t.Fatal(err)
	}
	m.register(1, rcv)
	data := func(seq, aux uint32, fl packet.Flags, payload string) *packet.Packet {
		return &packet.Packet{Type: packet.TypeData, MsgID: 1, Seq: seq, Aux: aux,
			Flags: fl, Payload: []byte(payload)}
	}
	rcv.OnPacket(SenderID, &packet.Packet{Type: packet.TypeAllocReq, MsgID: 1, Aux: 8})
	// Mid-transfer: a gap packet past the bitmap must be dropped, not
	// stored.
	rcv.OnPacket(SenderID, data(5, 8, 0, ""))
	rcv.OnPacket(SenderID, data(0, 0, 0, "abcd"))
	rcv.OnPacket(SenderID, data(1, 4, packet.FlagLast, "efgh"))
	if deliveries != 1 {
		t.Fatalf("deliveries = %d, want 1", deliveries)
	}
	// Post-delivery: next == count == 2; Seq == 2 with Aux == len(buf)
	// slides past store's offset check and panicked before the guard.
	rcv.OnPacket(SenderID, data(2, 8, 0, ""))
	// And a duplicate below count must not re-deliver.
	rcv.OnPacket(SenderID, data(0, 0, 0, "abcd"))
	if deliveries != 1 {
		t.Fatalf("deliveries = %d after stray packets, want 1", deliveries)
	}
}
