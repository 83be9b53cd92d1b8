package live

import (
	"time"

	"rmcast/internal/core"
	"rmcast/internal/packet"
	"rmcast/internal/sim"
	"rmcast/internal/trace"
)

// liveEnv implements core.Env on top of the node's transport, clock,
// timer queue and event loop. All methods are invoked from the event
// loop (the protocol endpoints only run there), so no extra locking is
// needed.
type liveEnv struct {
	n *Node
}

func (n *Node) env() core.Env { return &liveEnv{n: n} }

func (e *liveEnv) Now() time.Duration { return e.n.clk.Now() }

func (e *liveEnv) Send(to core.NodeID, p *packet.Packet) {
	addr, ok := e.n.addrs[to]
	if !ok {
		// Peer not discovered yet; the protocol's retransmission
		// machinery will retry after discovery converges.
		return
	}
	if drop := e.n.cfg.DropSend; drop != nil && drop(p) {
		return
	}
	p.Src = uint16(e.n.cfg.Rank)
	e.n.mx.CountSend(p.Type)
	e.n.trace(trace.Send, int(to), p)
	e.n.tr.WriteTo(e.n.codec.EncodeUnicast(p), addr)
}

func (e *liveEnv) Multicast(p *packet.Packet) {
	if drop := e.n.cfg.DropSend; drop != nil && drop(p) {
		return
	}
	p.Src = uint16(e.n.cfg.Rank)
	e.n.mx.CountSend(p.Type)
	e.n.trace(trace.SendMC, trace.Multicast, p)
	e.n.codec.Multicast(p)
}

// SetTimer arms fn on the node's timer queue. The queue's EventID is
// the TimerID, so arming and cancelling allocate nothing, and
// cancelling a timer that has fired is a no-op.
func (e *liveEnv) SetTimer(d time.Duration, fn func()) core.TimerID {
	n := e.n
	return core.TimerID(n.q.AtFunc(n.clk.Now()+d, fireTimer, n, fn))
}

func (e *liveEnv) CancelTimer(id core.TimerID) { e.n.q.Cancel(sim.EventID(id)) }

// fireTimer runs a timer's fn on the node's event loop, unless the node
// has closed since it was armed.
func fireTimer(a, b any) {
	if n := a.(*Node); !n.isClosed() {
		b.(func())()
	}
}

// UserCopy is a no-op on the live transport: the copy physically
// happens when the packet is encoded and written.
func (e *liveEnv) UserCopy(int) {}
