package main

import (
	"bytes"
	"fmt"
	"time"

	"rmcast/internal/core"
	"rmcast/internal/packet"
	"rmcast/internal/sim"
)

// nullNet is the benchmark-owned null core.Env: a sender and N
// receivers wired by zero-latency in-memory delivery, timers on an
// internal/sim clock, no codec, no network model. What a transfer costs
// here is what internal/core (with the window bookkeeping it calls)
// costs on its own — an upper bound on core's share of any runner's
// wall time for the same configuration.
//
// Delivery is a FIFO drained by run, never a nested call: an endpoint's
// OnPacket may send, and the recipient must not run inside the sender's
// stack frame. Packets are handed over by pointer; the sender builds a
// fresh Packet per transmission and receivers copy what they keep.
type nullNet struct {
	sim   *sim.Simulator
	eps   []core.Endpoint // index = NodeID
	queue []nullDelivery
	head  int
	tr    *tracer

	deliveries int // OnPacket calls made
}

type nullDelivery struct {
	from, to core.NodeID
	p        *packet.Packet
}

type nullEnv struct {
	net  *nullNet
	self core.NodeID
}

func (e *nullEnv) Now() time.Duration { return e.net.sim.Now() }

func (e *nullEnv) Send(to core.NodeID, p *packet.Packet) {
	e.net.queue = append(e.net.queue, nullDelivery{e.self, to, p})
}

func (e *nullEnv) Multicast(p *packet.Packet) {
	for id := range e.net.eps {
		if core.NodeID(id) != e.self {
			e.net.queue = append(e.net.queue, nullDelivery{e.self, core.NodeID(id), p})
		}
	}
}

func (e *nullEnv) SetTimer(d time.Duration, fn func()) core.TimerID {
	n := e.net
	return core.TimerID(n.sim.After(d, func() {
		id := n.tr.begin("core.timer")
		fn()
		n.tr.end(id)
	}))
}

func (e *nullEnv) CancelTimer(id core.TimerID) { e.net.sim.Cancel(sim.EventID(id)) }

func (e *nullEnv) UserCopy(int) {}

// nullTransfer is one finished transfer on the null Env.
type nullTransfer struct {
	wall       time.Duration
	deliveries int
	stats      core.SenderStats
}

// runNull builds the endpoints for pcfg, transfers msg once and checks
// every receiver's bytes. Construction is outside the timed part;
// Sender.Start (the allocation roll call's kick-off) is inside.
func runNull(pcfg core.Config, msg []byte, tr *tracer) (nullTransfer, error) {
	n := &nullNet{sim: sim.New(), tr: tr, eps: make([]core.Endpoint, pcfg.NumReceivers+1)}
	done := false
	snd, err := core.NewSender(&nullEnv{n, core.SenderID}, pcfg, func() { done = true })
	if err != nil {
		return nullTransfer{}, err
	}
	n.eps[0] = snd
	delivered := make([][]byte, pcfg.NumReceivers+1)
	for r := 1; r <= pcfg.NumReceivers; r++ {
		r := r
		// The comparison waits until the clock has stopped: the slice is
		// the receiver's own buffer and stays put.
		rcv, err := core.NewReceiver(&nullEnv{n, core.NodeID(r)}, pcfg, core.NodeID(r), func(b []byte) {
			delivered[r] = b
		})
		if err != nil {
			return nullTransfer{}, err
		}
		n.eps[r] = rcv
	}
	t0 := time.Now()
	id := tr.begin("core.Sender.Start")
	snd.Start(msg)
	tr.end(id)
	for !done {
		if n.head < len(n.queue) {
			d := n.queue[n.head]
			n.queue[n.head] = nullDelivery{}
			n.head++
			if n.head == len(n.queue) {
				n.queue, n.head = n.queue[:0], 0
			}
			name := "core.Receiver.OnPacket"
			if d.to == core.SenderID {
				name = "core.Sender.OnPacket"
			}
			id := tr.begin(name)
			n.eps[d.to].OnPacket(d.from, d.p)
			tr.end(id)
			n.deliveries++
			continue
		}
		// Nothing in flight: only a timer can move the session on.
		if n.sim.Pending() == 0 || n.sim.Now() > time.Minute {
			return nullTransfer{}, fmt.Errorf("null-Env %v transfer stalled at %v", pcfg.Protocol, n.sim.Now())
		}
		n.sim.Step()
	}
	wall := time.Since(t0)
	for r := 1; r <= pcfg.NumReceivers; r++ {
		if !bytes.Equal(delivered[r], msg) {
			return nullTransfer{}, fmt.Errorf("null-Env %v transfer: receiver %d did not deliver the message", pcfg.Protocol, r)
		}
	}
	return nullTransfer{wall: wall, deliveries: n.deliveries, stats: snd.Stats()}, nil
}
