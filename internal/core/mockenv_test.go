package core

import (
	"time"

	"rmcast/internal/packet"
	"rmcast/internal/rng"
	"rmcast/internal/sim"
)

// mockNet is a minimal Env implementation for unit-testing protocol
// logic in isolation: fixed-latency delivery, optional packet drops,
// and no CPU model. Packets are encoded and re-decoded on every hop so
// the codec is exercised on the same path the real transports use.
type mockNet struct {
	s         *sim.Simulator
	latency   time.Duration
	endpoints map[NodeID]Endpoint
	// drop, when non-nil, discards matching transmissions.
	drop func(from, to NodeID, p *packet.Packet) bool
	// delay, when non-nil, adds to the latency of each transmission.
	delay func(from, to NodeID, p *packet.Packet) time.Duration
	// armed, when non-nil, is told of every timer a node arms.
	armed func(self NodeID)
	// receivers is the group size for multicast fan-out.
	receivers int

	sent    uint64
	dropped uint64
}

func newMockNet(receivers int) *mockNet {
	return &mockNet{
		s:         sim.New(),
		latency:   100 * time.Microsecond,
		endpoints: make(map[NodeID]Endpoint),
		receivers: receivers,
	}
}

func (m *mockNet) register(id NodeID, ep Endpoint) { m.endpoints[id] = ep }

func (m *mockNet) env(self NodeID) *mockEnv { return &mockEnv{net: m, self: self} }

func (m *mockNet) transmit(from, to NodeID, p *packet.Packet) {
	m.sent++
	if m.drop != nil && m.drop(from, to, p) {
		m.dropped++
		return
	}
	// Round-trip through the codec, as the real transports do.
	wire := p.Encode()
	d := m.latency
	if m.delay != nil {
		d += m.delay(from, to, p)
	}
	m.s.After(d, func() {
		ep := m.endpoints[to]
		if ep == nil {
			return
		}
		q, err := packet.Decode(wire)
		if err != nil {
			panic("mockNet: codec round-trip failed: " + err.Error())
		}
		ep.OnPacket(from, q)
	})
}

type mockEnv struct {
	net  *mockNet
	self NodeID
}

func (e *mockEnv) Now() time.Duration { return e.net.s.Now() }

func (e *mockEnv) Send(to NodeID, p *packet.Packet) { e.net.transmit(e.self, to, p) }

func (e *mockEnv) Multicast(p *packet.Packet) {
	for id := range e.net.endpoints {
		if id == e.self {
			continue
		}
		e.net.transmit(e.self, id, p)
	}
}

func (e *mockEnv) SetTimer(d time.Duration, fn func()) TimerID {
	if e.net.armed != nil {
		e.net.armed(e.self)
	}
	return TimerID(e.net.s.After(d, fn))
}

func (e *mockEnv) CancelTimer(id TimerID) { e.net.s.Cancel(sim.EventID(id)) }

func (e *mockEnv) UserCopy(int) {}

// lossyDrop returns a drop function losing each transmission with
// probability p, deterministically from seed.
func lossyDrop(p float64, seed uint64) func(NodeID, NodeID, *packet.Packet) bool {
	r := rng.New(seed)
	return func(NodeID, NodeID, *packet.Packet) bool { return r.Bool(p) }
}

// session wires a sender and receivers over a mockNet and runs the
// transfer to completion (or the deadline).
type session struct {
	net       *mockNet
	sender    *Sender
	receivers []*Receiver
	delivered [][]byte
	doneAt    time.Duration
	senderOK  bool
}

func newSession(cfg Config) (*session, error) {
	m := newMockNet(cfg.NumReceivers)
	ses := &session{net: m, delivered: make([][]byte, cfg.NumReceivers+1)}
	snd, err := NewSender(m.env(SenderID), cfg, func() {
		ses.senderOK = true
		ses.doneAt = m.s.Now()
	})
	if err != nil {
		return nil, err
	}
	ses.sender = snd
	m.register(SenderID, snd)
	for r := 1; r <= cfg.NumReceivers; r++ {
		r := r
		rcv, err := NewReceiver(m.env(NodeID(r)), cfg, NodeID(r), func(msg []byte) {
			ses.delivered[r] = msg
		})
		if err != nil {
			return nil, err
		}
		ses.receivers = append(ses.receivers, rcv)
		m.register(NodeID(r), rcv)
	}
	return ses, nil
}

// run starts the transfer and drives the simulation until the sender
// finishes or the deadline passes. It reports whether the sender
// completed.
func (ses *session) run(msg []byte, deadline time.Duration) bool {
	ses.net.s.After(0, func() { ses.sender.Start(msg) })
	for ses.net.s.Pending() > 0 && !ses.senderOK {
		if !ses.net.s.Step() {
			break
		}
		if ses.net.s.Now() > deadline {
			return false
		}
	}
	return ses.senderOK
}

// pattern builds a deterministic test payload.
func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*131 + 17)
	}
	return b
}
