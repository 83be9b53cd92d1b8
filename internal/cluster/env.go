package cluster

import (
	"time"

	"rmcast/internal/core"
	"rmcast/internal/ipnet"
	"rmcast/internal/metrics"
	"rmcast/internal/packet"
	"rmcast/internal/sim"
	"rmcast/internal/trace"
	"rmcast/internal/wire"
)

// binding places one session on the fabric — its UDP port, multicast
// group, and which host plays which protocol rank — and names the sinks
// its observations go to. Every env of the session shares one binding:
// the two rank maps are allocated once, and each datagram pays a slice
// index for the translation.
type binding struct {
	c     *Cluster
	port  int
	group ipnet.Addr
	// hostOf maps protocol rank (0 = sender) to host address; rankOf is
	// its inverse over every host of the cluster, -1 for a host outside
	// the session.
	hostOf []ipnet.Addr
	rankOf []core.NodeID
	mx     *metrics.Session // nil: nothing is counted
	tr     *trace.Buffer    // nil: nothing is traced
	// sess tags the binding's shard-log entries with the transfer they
	// belong to (see shardState.transfers).
	sess int
}

// bind builds the binding that runs rank r on host hostOf[r].
func (c *Cluster) bind(port int, group ipnet.Addr, hostOf []ipnet.Addr, mx *metrics.Session, tr *trace.Buffer) *binding {
	b := &binding{c: c, port: port, group: group, hostOf: hostOf,
		rankOf: make([]core.NodeID, len(c.Hosts)), mx: mx, tr: tr}
	for h := range b.rankOf {
		b.rankOf[h] = -1
	}
	for r, h := range hostOf {
		b.rankOf[h] = core.NodeID(r)
	}
	return b
}

// rotateRoot is the rank-to-host map of a session rooted at host root:
// rank 0 is the root, ranks 1..N the remaining hosts in address order.
// Root 0 is the identity, the classic Run's mapping.
func rotateRoot(hosts int, root core.NodeID) []ipnet.Addr {
	hostOf := append(make([]ipnet.Addr, 0, hosts), ipnet.Addr(root))
	for h := 0; h < hosts; h++ {
		if core.NodeID(h) != root {
			hostOf = append(hostOf, ipnet.Addr(h))
		}
	}
	return hostOf
}

// bindRoot is the all-hosts binding rooted at root, on the cluster's
// own group and sinks. Run is bindRoot(0, Port).
func (c *Cluster) bindRoot(root core.NodeID, port int) *binding {
	return c.bind(port, c.group, rotateRoot(len(c.Hosts), root), c.Cfg.Metrics, c.Cfg.Trace)
}

// env implements core.Env for one rank of a binding: protocol sends
// become UDP datagrams through the host's socket (paying syscall and
// copy costs on the host CPU), timers run on the host, and packets
// arriving on the socket are decoded and dispatched to the endpoint.
type env struct {
	b    *binding
	rank core.NodeID
	host *ipnet.Host
	sock *ipnet.Socket
	ep   core.Endpoint // set before any packet can arrive

	// codec frames this node's traffic in the session's wire format.
	codec *wire.Codec
	// emit is the codec's per-packet callback, built once: it delivers
	// to receive from the rank of the datagram being decoded, from.
	emit func(*packet.Packet)
	from core.NodeID
}

// newEnv binds rank's socket on its host and builds its codec for
// pcfg's wire format. What a v2 codec queues leaves on a zero-delay
// timer: after the current event, at the same virtual time.
func (b *binding) newEnv(rank core.NodeID, pcfg core.Config) *env {
	e := &env{b: b, rank: rank, host: b.c.Hosts[b.hostOf[rank]]}
	e.emit = func(p *packet.Packet) { e.receive(e.from, p) }
	e.sock = e.host.Bind(b.port, e.onDatagram)
	e.codec = wire.New(pcfg, b.c.Cfg.CountWire, b.mx,
		func() { e.host.SetTimer(0, e.codec.FlushBatch) },
		func(frame []byte) { e.sock.SendTo(b.group, b.port, frame) })
	return e
}

func (e *env) onDatagram(dg *ipnet.Datagram) {
	frame := dg.Payload
	if mangle := e.b.c.Cfg.RxMangle; mangle != nil {
		if frame = mangle(int(e.rank), frame); frame == nil {
			return
		}
	}
	src := int(dg.Src)
	if src < 0 || src >= len(e.b.rankOf) || e.b.rankOf[src] < 0 {
		return // not a member of this session
	}
	e.from = e.b.rankOf[src]
	// A frame the codec rejects is dropped whole; the codec counted it.
	_ = e.codec.Decode(frame, e.emit)
}

func (e *env) receive(from core.NodeID, p *packet.Packet) {
	e.trace(trace.Recv, int(from), p)
	e.b.mx.CountRecv(p.Type)
	if e.ep != nil {
		e.ep.OnPacket(from, p)
	}
}

// trace records one protocol event, in rank space, if tracing is
// enabled. Timestamps come from the node's own host clock — identical
// to the global clock in serial runs — and sharded runs route the event
// through the node's shard log, from which the coordinator merges the
// global stream in serial order at the next window barrier.
func (e *env) trace(dir trace.Dir, peer int, p *packet.Packet) {
	if e.b.tr == nil {
		return
	}
	ev := trace.Event{
		At:    e.host.Now(),
		Node:  int(e.rank),
		Dir:   dir,
		Peer:  peer,
		Type:  p.Type,
		Flags: p.Flags,
		MsgID: p.MsgID,
		Seq:   p.Seq,
		Aux:   p.Aux,
		Len:   len(p.Payload),
	}
	if sh := e.b.c.sh; sh != nil {
		sh.logFor(e.b.hostOf[e.rank]).add(shardEntry{at: ev.At, sess: e.b.sess, rank: -1, ev: ev})
		return
	}
	e.b.tr.Add(ev)
}

func (e *env) Now() time.Duration { return e.host.Now() }

func (e *env) Send(to core.NodeID, p *packet.Packet) {
	e.trace(trace.Send, int(to), p)
	e.b.mx.CountSend(p.Type)
	e.sock.SendTo(e.b.hostOf[to], e.b.port, e.codec.EncodeUnicast(p))
}

func (e *env) Multicast(p *packet.Packet) {
	e.trace(trace.SendMC, trace.Multicast, p)
	e.b.mx.CountSend(p.Type)
	e.codec.Multicast(p)
}

func (e *env) SetTimer(d time.Duration, fn func()) core.TimerID {
	return core.TimerID(e.host.SetTimer(d, fn))
}

func (e *env) CancelTimer(id core.TimerID) {
	e.host.CancelTimer(sim.EventID(id))
}

func (e *env) UserCopy(n int) {
	e.host.UserCopy(n, func() {})
}
