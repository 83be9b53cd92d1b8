// Package live runs the reliable multicast protocol state machines over
// real UDP/IP multicast using the standard library's net package — the
// same configuration the paper deployed on its cluster. The protocol
// logic in internal/core is shared verbatim with the simulator; this
// package supplies the core.Env runtime: sockets, timers, a serialized
// event loop, and rank↔address discovery.
//
// Each node opens two sockets: a multicast listener joined to the group
// (for data and allocation requests) and a unicast socket on an
// ephemeral port (for acknowledgments, NAKs, and as the source of all
// transmissions, so every peer learns a node's unicast address from any
// packet it sends). Nodes announce themselves with periodic HELLO
// packets until every expected peer is known.
//
// The socket and clock bindings are seams (transport.go): NewNode binds
// them to UDP and the wall clock, while LoopNet (loopback.go) binds the
// identical node code to an in-process network driven by a virtual
// clock, making whole live sessions deterministic and replayable.
package live

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"rmcast/internal/core"
	"rmcast/internal/metrics"
	"rmcast/internal/packet"
	"rmcast/internal/trace"
	"rmcast/internal/wire"
)

// Config describes one live node.
type Config struct {
	// Group is the multicast group "address:port", e.g. "239.77.12.5:7412".
	Group string
	// Interface optionally names the interface for multicast reception
	// (e.g. "lo" for same-host demos); empty lets the kernel choose.
	Interface string
	// Rank is this node's identity: 0 is the sender, 1..NumReceivers
	// are receivers.
	Rank core.NodeID
	// Protocol carries the shared protocol parameters. NumReceivers
	// must match across all nodes.
	Protocol core.Config
	// HelloInterval is the discovery announcement period (default 200ms).
	// Hellos double as liveness heartbeats once a transfer is running.
	HelloInterval time.Duration
	// PeerTimeout is how long the sender tolerates total silence from a
	// receiver (no hello, no acknowledgment) before declaring it dead
	// and ejecting it from the session — the live counterpart of the
	// simulator's probe-based failure detection. Only acted on when
	// Protocol.MaxRetries > 0; default 5×HelloInterval.
	PeerTimeout time.Duration
	// ReadBuffer sizes the sockets' kernel receive buffers (default 1 MB).
	// NewNode fails if a socket refuses it; Linux silently clamps a
	// request above net.core.rmem_max instead.
	ReadBuffer int
	// DropSend, when non-nil, discards outgoing packets for which it
	// returns true before they reach the socket — deterministic loss
	// injection so the retransmission paths can be tested over real
	// sockets. Hello packets are never dropped. Leave nil in production.
	DropSend func(p *packet.Packet) bool
	// Trace, when non-nil, records every protocol packet event — the
	// same ring buffer the simulator uses. On a UDP node it must be
	// safe for concurrent use (trace.NewShared): the node's goroutines
	// record into it while the application reads it. Loopback nodes are
	// single-threaded and may share a plain trace.New buffer.
	Trace *trace.Buffer
	// OnDeliver, when non-nil on a receiver rank, is invoked on the
	// event loop for every fully delivered message with the node's
	// elapsed time and the reassembled payload — the receiver's own
	// buffer, valid only during the call and not to be written. Recv
	// keeps working alongside it; the hook exists so the deterministic
	// loopback harness can observe deliveries without spinning up
	// consumer goroutines.
	OnDeliver func(at time.Duration, payload []byte)
}

// Node is one live protocol endpoint.
type Node struct {
	cfg   Config
	group netip.AddrPort
	tr    transport
	clk   nodeClock
	// driven is non-nil when the node is attached to a deterministic
	// loopback network: posts go to the network's inbox instead of the
	// loop channel, and no event-loop goroutine runs — the loopback
	// driver executes posted work between simulator events.
	driven *LoopNet

	loop      chan work // loopDepth deep; nil on a driven node
	closing   chan struct{}
	wg        sync.WaitGroup
	stopHello func()

	// mx counts the node's protocol activity. Its instruments are
	// atomic, so Metrics() snapshots are safe from any goroutine.
	mx *metrics.Session

	// rx lends reader buffers to the event loop (UDP nodes only).
	rx rxFree

	// codec frames this node's traffic in the session's wire format
	// (Protocol.WireV2). Owned by the event loop, like the endpoints
	// that feed it.
	codec *wire.Codec
	// emit is the codec's per-packet callback, built once: it dispatches
	// to onPacket with the source address of the datagram being
	// decoded, src.
	emit func(*packet.Packet)
	src  netip.AddrPort

	// Everything below is owned by the event loop — the runLoop
	// goroutine on a UDP node, the loopback driver in driven mode.
	addrs     map[core.NodeID]netip.AddrPort
	lastSeen  map[core.NodeID]time.Duration
	ep        core.Endpoint
	timers    map[core.TimerID]canceler
	nextTimer core.TimerID
	readyWait []readyWaiter
	// curMsgStart is when the current message's first packet was heard
	// (receiver ranks); it anchors the completion-latency observation.
	curMsgID    uint32
	haveCurMsg  bool
	curMsgStart time.Duration

	// recvQ holds delivered messages (receiver ranks), each a reference
	// the queue owns: whoever takes a message out releases it.
	recvQ chan *core.Message

	// snd is the persistent sender state machine (rank 0 only); it is
	// reused across Send calls so message ids stay unique for the
	// receivers. sendDone is the completion hook of the Send in flight.
	snd      *core.Sender
	sendDone func()
	sending  bool

	closeOnce sync.Once
}

// loopDepth is how many units a UDP node's event loop queues: deep
// enough for the readers to keep draining the sockets through a
// window's burst of arrivals. It also bounds the reader buffers on loan
// to the loop at once.
const loopDepth = 1024

// work is one unit of a UDP node's event-loop work: a posted closure,
// or — the per-datagram case, kept closure-free like LoopNet's loopWork
// — a datagram a reader lent the loop, in a buffer from the node's free
// list, with its source.
type work struct {
	fn    func()
	frame []byte
	src   netip.AddrPort
}

// readyWaiter is one pending whenReady continuation.
type readyWaiter struct {
	want int
	fn   func()
}

// newNode builds the runtime-independent part of a node: config
// validation and defaults, the protocol endpoint, and the event-loop
// state. The caller attaches a transport and starts discovery.
func newNode(cfg Config, group netip.AddrPort, clk nodeClock, driven *LoopNet) (*Node, error) {
	if cfg.Rank < 0 || int(cfg.Rank) > cfg.Protocol.NumReceivers {
		return nil, fmt.Errorf("live: rank %d out of range [0,%d]", cfg.Rank, cfg.Protocol.NumReceivers)
	}
	// Refuse a bad protocol configuration now, on every rank: the
	// sender's state machine is only built at its first Send.
	if _, err := cfg.Protocol.Normalize(); err != nil {
		return nil, err
	}
	if cfg.HelloInterval == 0 {
		cfg.HelloInterval = 200 * time.Millisecond
	}
	if cfg.PeerTimeout == 0 {
		cfg.PeerTimeout = 5 * cfg.HelloInterval
	}
	if cfg.ReadBuffer == 0 {
		cfg.ReadBuffer = 1 << 20
	}
	n := &Node{
		cfg:      cfg,
		group:    group,
		clk:      clk,
		driven:   driven,
		closing:  make(chan struct{}),
		mx:       metrics.NewSession(),
		addrs:    make(map[core.NodeID]netip.AddrPort),
		lastSeen: make(map[core.NodeID]time.Duration),
		timers:   make(map[core.TimerID]canceler),
		recvQ:    make(chan *core.Message, 16),
	}
	if driven == nil {
		n.loop = make(chan work, loopDepth)
	}
	n.emit = func(p *packet.Packet) { n.onPacket(p, n.src) }
	// The send closure reads n.tr at send time: the transport is
	// attached after newNode returns but before any packet moves.
	n.codec = wire.New(cfg.Protocol, false, n.mx,
		func() { n.post(n.codec.FlushBatch) },
		func(frame []byte) { n.tr.WriteTo(frame, n.group) })
	if cfg.Rank != core.SenderID {
		rcv, err := core.NewReceiver(n.env(), cfg.Protocol, cfg.Rank, n.onDeliver)
		if err != nil {
			return nil, err
		}
		rcv.SetMetrics(n.mx)
		n.ep = rcv
	}
	return n, nil
}

// NewNode opens the sockets and starts the event loop and discovery.
// Receiver nodes are immediately able to participate in sessions; the
// sender should call WaitReady (or just Send, which waits) first.
func NewNode(cfg Config) (*Node, error) {
	group, err := net.ResolveUDPAddr("udp4", cfg.Group)
	if err != nil {
		return nil, fmt.Errorf("live: bad group address %q: %w", cfg.Group, err)
	}
	if !group.IP.IsMulticast() {
		return nil, fmt.Errorf("live: %v is not a multicast address", group.IP)
	}
	var ifi *net.Interface
	if cfg.Interface != "" {
		ifi, err = net.InterfaceByName(cfg.Interface)
		if err != nil {
			return nil, fmt.Errorf("live: interface %q: %w", cfg.Interface, err)
		}
	}
	// Readers see IPv4 sources in their 4-byte form; compare and send
	// in that form too.
	ap := group.AddrPort()
	n, err := newNode(cfg, netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()), realClock{epoch: time.Now()}, nil)
	if err != nil {
		return nil, err
	}
	tr, err := newUDPTransport(group, ifi, n.cfg.ReadBuffer, n.mx, n.handoff)
	if err != nil {
		return nil, err
	}
	n.tr = tr
	n.wg.Add(1)
	go n.runLoop()
	n.startHello()
	return n, nil
}

// handoff is the reader's half of the receive path (a UDP transport's
// reader goroutine; the loopback network queues its datagrams as typed
// inbox entries instead). It drops the node's own multicast, looped
// back by the kernel, before anything is copied or decoded; copies
// every other frame out of the reader's scratch into a buffer from the
// free list; and lends that buffer to the event loop, which returns it
// once onWire is done. Lending is sound because nothing past onWire
// keeps a received byte: the codec's decode only borrows the frame and
// internal/core copies every payload it retains.
func (n *Node) handoff(frame []byte, src netip.AddrPort) {
	if rank, ok := packet.PeekSrc(frame); ok && rank == uint16(n.cfg.Rank) {
		return
	}
	buf := n.rx.get(len(frame))
	copy(buf, frame)
	n.push(work{frame: buf, src: src})
}

// onDeliver handles one fully reassembled message (event loop).
func (n *Node) onDeliver(msg []byte) {
	// Delivery runs on the event loop; the current message's first
	// packet anchored curMsgStart there.
	if n.haveCurMsg {
		n.mx.ObserveCompletion(int(n.cfg.Rank), n.clk.Now()-n.curMsgStart)
	}
	if n.cfg.OnDeliver != nil {
		n.cfg.OnDeliver(n.clk.Now(), msg)
	}
	// Queue a reference, not a copy: the receiver moves to a fresh
	// buffer at its next session while this one is retained, and Recv
	// copies out only what the application reads.
	m := n.ep.(*core.Receiver).Retain()
	select {
	case n.recvQ <- m:
	default:
		// Receiver application is not consuming; drop the oldest.
		select {
		case old := <-n.recvQ:
			old.Release()
			n.mx.CountRecvQEviction()
		default:
		}
		n.recvQ <- m
	}
}

// Rank returns the node's rank.
func (n *Node) Rank() core.NodeID { return n.cfg.Rank }

// LocalAddr returns the node's unicast address.
func (n *Node) LocalAddr() *net.UDPAddr { return n.tr.LocalAddr() }

// Close shuts the node down. Pending Send/Recv calls fail, messages
// still queued for Recv are dropped, and a receiver rank's message
// buffers go back to the process-wide pool.
// On a UDP node it waits for the event loop and socket readers to
// exit, so no node goroutine outlives Close. Closing twice is a no-op.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		close(n.closing)
		if n.stopHello != nil {
			n.stopHello()
		}
		n.tr.Close()
		if n.driven != nil {
			// The driver is this node's event loop, and nothing is posted
			// to a closed node.
			n.release()
		}
	})
	n.wg.Wait()
	return nil
}

// release drops a receiver rank's references to its message buffers —
// the receiver's and every queued message's — so the last one hands
// each back to the pool for the next session in the process (event
// loop, at shutdown). A Recv racing the drain takes a message from the
// queue instead and releases it itself.
func (n *Node) release() {
	if r, ok := n.ep.(*core.Receiver); ok {
		r.Release()
	}
	for {
		select {
		case m := <-n.recvQ:
			m.Release()
		default:
			return
		}
	}
}

// post runs fn on the event loop (no-op after Close). In driven mode
// the "event loop" is the loopback driver: fn goes to the network's
// inbox and runs when the driver next drains it.
func (n *Node) post(fn func()) {
	if n.driven == nil {
		n.push(work{fn: fn})
		return
	}
	select {
	case <-n.closing:
	default:
		n.driven.enqueue(loopWork{fn: fn})
	}
}

// push queues w on a UDP node's event loop, blocking while the loop is
// full (no-op after Close).
func (n *Node) push(w work) {
	select {
	case <-n.closing:
		return
	default:
	}
	select {
	case n.loop <- w:
	case <-n.closing:
	}
}

// run executes one unit of event-loop work, returning a lent datagram's
// buffer to the free list once onWire is done with it. Each unit is
// timed: the sum is the node's protocol-engine CPU occupancy — the live
// counterpart of the simulator's sender-busy measurement (ACK implosion
// shows up here first).
func (n *Node) run(w work) {
	t0 := time.Now()
	if w.fn != nil {
		w.fn()
	} else {
		n.onWire(w.frame, w.src)
		n.rx.put(w.frame)
	}
	n.mx.AddSenderBusy(time.Since(t0))
}

func (n *Node) runLoop() {
	defer n.wg.Done()
	for {
		select {
		case w := <-n.loop:
			n.run(w)
		case <-n.closing:
			// Drain whatever is queued, stop timers, release buffers.
			for {
				select {
				case w := <-n.loop:
					n.run(w)
				default:
					for _, t := range n.timers {
						t.Stop()
					}
					n.release()
					return
				}
			}
		}
	}
}

// Metrics returns a snapshot of the node's metrics: per-type packet
// counts, retransmissions, NAKs, ejections, per-message completion
// latency (receiver ranks) or per-transfer latency (the sender), RTT
// estimator state when adaptive retransmission is enabled, and the
// protocol engine's accumulated CPU-busy time (as SenderBusy).
// Safe to call from any goroutine.
func (n *Node) Metrics() metrics.Metrics { return n.mx.Snapshot() }

// MetricsRegistry exposes the node's named instruments (for dumps).
func (n *Node) MetricsRegistry() *metrics.Registry { return n.mx.Registry() }

// trace records one packet event into the configured shared buffer.
func (n *Node) trace(dir trace.Dir, peer int, p *packet.Packet) {
	buf := n.cfg.Trace
	if buf == nil {
		return
	}
	buf.Add(trace.Event{
		At:    n.clk.Now(),
		Node:  int(n.cfg.Rank),
		Dir:   dir,
		Peer:  peer,
		Type:  p.Type,
		Flags: p.Flags,
		MsgID: p.MsgID,
		Seq:   p.Seq,
		Aux:   p.Aux,
		Len:   len(p.Payload),
	})
}

// onWire decodes and dispatches one received datagram (event loop).
func (n *Node) onWire(frame []byte, src netip.AddrPort) {
	// A frame failing any decode guard was damaged in flight or is
	// stray traffic on the port; the codec counts it and it is dropped
	// whole — no inner packet of a corrupt carrier reaches the endpoint.
	n.src = src
	_ = n.codec.Decode(frame, n.emit)
}

// onPacket dispatches one decoded logical packet (event loop). A v2
// carrier frame lands here once per inner packet.
func (n *Node) onPacket(p *packet.Packet, src netip.AddrPort) {
	from := core.NodeID(p.Src)
	if from == n.cfg.Rank {
		// Our own rank. A UDP reader drops our looped-back frames whole;
		// this catches what an outer header cannot show, a carrier's
		// inner packets.
		return
	}
	if int(from) > n.cfg.Protocol.NumReceivers {
		return
	}
	// Every packet proves the peer alive and may teach an unknown
	// peer's unicast address; only a hello may change a known one.
	n.learn(from, src, p.Type == packet.TypeHello)
	n.lastSeen[from] = n.clk.Now()
	n.mx.CountRecv(p.Type)
	n.trace(trace.Recv, int(from), p)
	// The first packet of a new message anchors this node's
	// completion-latency clock.
	if (p.Type == packet.TypeAllocReq || p.Type == packet.TypeData) &&
		(!n.haveCurMsg || p.MsgID != n.curMsgID) {
		n.curMsgID = p.MsgID
		n.haveCurMsg = true
		n.curMsgStart = n.clk.Now()
	}
	switch p.Type {
	case packet.TypeHello:
		// Learning was the point; answer new peers promptly so
		// discovery converges in one round trip rather than a period.
		if p.Aux == 1 {
			n.sendHello(false)
		}
	default:
		if n.ep != nil {
			n.ep.OnPacket(from, p)
		}
	}
}

// learn records id's unicast address. The first packet heard from a
// peer teaches it, whatever its type — data may arrive before the
// peer's first hello — but a known address changes only on a hello: a
// peer announces a new address (a restarted process) in hellos, while
// any other packet naming a known rank from elsewhere is stray or
// spoofed and must not re-point its unicast traffic.
func (n *Node) learn(id core.NodeID, addr netip.AddrPort, hello bool) {
	old, ok := n.addrs[id]
	if ok && (old == addr || !hello) {
		return
	}
	n.addrs[id] = addr
	for i := 0; i < len(n.readyWait); {
		w := n.readyWait[i]
		if len(n.addrs) >= w.want {
			// Remove before invoking: w.fn may append new waiters.
			n.readyWait = append(n.readyWait[:i], n.readyWait[i+1:]...)
			w.fn()
			continue
		}
		i++
	}
}

// whenReady runs fn on the event loop once the node knows at least
// `want` peer addresses — immediately if it already does.
func (n *Node) whenReady(want int, fn func()) {
	if len(n.addrs) >= want {
		fn()
		return
	}
	n.readyWait = append(n.readyWait, readyWaiter{want: want, fn: fn})
}

// startHello announces this node immediately and then every
// HelloInterval until Close. Each tick also sweeps the heartbeat table
// for expired peers.
func (n *Node) startHello() {
	n.post(func() { n.sendHello(true) })
	n.stopHello = n.clk.Tick(n.cfg.HelloInterval, func() {
		n.post(func() {
			n.sendHello(true)
			n.checkPeers()
		})
	})
}

// checkPeers expires silent receivers (event loop, sender only): a
// receiver not heard from for PeerTimeout while a transfer is in
// flight is declared dead and ejected from the session. Hellos arrive
// every HelloInterval from a healthy peer regardless of its role in
// the protocol, so silence that long means the process or its network
// is gone.
func (n *Node) checkPeers() {
	if n.snd == nil || !n.sending || n.cfg.Protocol.MaxRetries == 0 {
		return
	}
	now := n.clk.Now()
	for r := 1; r <= n.cfg.Protocol.NumReceivers; r++ {
		id := core.NodeID(r)
		seen, ok := n.lastSeen[id]
		if !ok || !n.snd.Alive(id) {
			continue
		}
		if now-seen > n.cfg.PeerTimeout {
			n.snd.DeclareDead(id)
		}
	}
}

// sendHello multicasts a discovery announcement. wantReply asks peers
// to announce back immediately (Aux=1).
func (n *Node) sendHello(wantReply bool) {
	aux := uint32(0)
	if wantReply {
		aux = 1
	}
	p := &packet.Packet{Type: packet.TypeHello, Src: uint16(n.cfg.Rank), Aux: aux}
	n.mx.CountSend(p.Type)
	n.trace(trace.SendMC, trace.Multicast, p)
	n.codec.Multicast(p)
}

// WaitReady blocks until this node knows the unicast address of `peers`
// other nodes (use Protocol.NumReceivers for a sender; 1 suffices for a
// plain receiver that only talks to the sender).
func (n *Node) WaitReady(ctx context.Context, peers int) error {
	ch := make(chan struct{})
	n.post(func() { n.whenReady(peers, func() { close(ch) }) })
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("live: waiting for %d peers: %w", peers, ctx.Err())
	case <-n.closing:
		return errors.New("live: node closed")
	}
}

// startSend begins one reliable transfer without blocking. It waits on
// the event loop for discovery of every initially-present receiver
// (late joiners are admitted when they knock), runs the session, and
// calls done exactly once with the transfer's outcome: nil on full
// delivery, a *core.PartialResult when failure detection ejected
// receivers along the way, or another error when the transfer could not
// start. done runs on the event loop. The blocking Send wraps this; the
// deterministic loopback harness calls it directly, because blocking
// the driver goroutine would deadlock the virtual clock.
func (n *Node) startSend(msg []byte, done func(error)) {
	n.post(func() {
		if n.cfg.Rank != core.SenderID {
			done(fmt.Errorf("live: Send on rank %d (only rank 0 sends)", n.cfg.Rank))
			return
		}
		// Initially-absent ranks (late joiners) are not needed to start:
		// the session admits them when they knock.
		n.whenReady(n.cfg.Protocol.NumReceivers-len(n.cfg.Protocol.Absent), func() {
			n.beginSend(msg, done)
		})
	})
}

// beginSend starts the session proper (event loop, discovery complete).
func (n *Node) beginSend(msg []byte, done func(error)) {
	if n.sending {
		done(errors.New("live: a Send is already in progress"))
		return
	}
	if n.snd == nil {
		snd, err := core.NewSender(n.env(), n.cfg.Protocol, func() {
			n.sending = false
			if n.sendDone != nil {
				n.sendDone()
			}
		})
		if err != nil {
			done(err)
			return
		}
		snd.SetMetrics(n.mx)
		n.snd = snd
		n.ep = snd
	}
	n.sending = true
	sendStart := n.clk.Now()
	n.sendDone = func() {
		// Clear before invoking: the completion hook fires exactly once
		// per transfer even if a late DeclareDead (heartbeat expiry
		// racing the final acknowledgment) re-enters the sender's
		// completion path.
		n.sendDone = nil
		// The sender's "completion latency" is the whole transfer,
		// recorded under its own rank.
		n.mx.ObserveCompletion(int(core.SenderID), n.clk.Now()-sendStart)
		var err error
		if failed := n.snd.Failed(); len(failed) > 0 {
			pr := &core.PartialResult{Failed: append([]core.NodeID(nil), failed...)}
			for r := 1; r <= n.cfg.Protocol.NumReceivers; r++ {
				if n.snd.Alive(core.NodeID(r)) {
					pr.Delivered = append(pr.Delivered, core.NodeID(r))
				}
			}
			err = pr
		}
		done(err)
	}
	n.snd.Start(msg)
}

// Send multicasts msg reliably to every receiver. Only rank 0 may call
// it, one transfer at a time. It waits for discovery of all receivers,
// runs the session, and returns when every surviving receiver has
// acknowledged the full message. If failure detection ejected receivers
// along the way (Protocol.MaxRetries > 0 and a peer fell silent past
// PeerTimeout), the transfer still completes for the survivors and Send
// returns a *core.PartialResult error naming both sets.
func (n *Node) Send(ctx context.Context, msg []byte) error {
	if n.cfg.Rank != core.SenderID {
		return fmt.Errorf("live: Send on rank %d (only rank 0 sends)", n.cfg.Rank)
	}
	errCh := make(chan error, 1)
	n.startSend(msg, func(err error) { errCh <- err })
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		// Abandon the session: the next Send will fail until the
		// current one completes, mirroring a blocked sendto.
		n.post(func() { n.sendDone = nil })
		return ctx.Err()
	case <-n.closing:
		return errors.New("live: node closed")
	}
}

// Join starts the admission handshake on a receiver that was
// constructed absent (its rank listed in Protocol.Absent): the node
// asks the sender for admission and, when a transfer is already in
// flight, catches up on the prefix it missed before following the live
// stream. The request is retried until the sender answers. No-op on the
// sender rank or an already-present receiver.
func (n *Node) Join() {
	n.post(func() {
		if r, ok := n.ep.(*core.Receiver); ok {
			r.Join()
		}
	})
}

// Leave starts the graceful-departure handshake on a receiver: the
// sender drains this rank's protocol state, announces the departure to
// the group, and the node goes quiet once the confirmation arrives —
// no ejection machinery involved. No-op on the sender rank.
func (n *Node) Leave() {
	n.post(func() {
		if r, ok := n.ep.(*core.Receiver); ok {
			r.Leave()
		}
	})
}

// Recv returns the next fully delivered message on a receiver node, in
// a copy the caller owns. The node queues up to 16 messages nobody has
// received; past that it drops the oldest and counts it in
// Metrics().RecvQEvictions. Messages still queued at Close are dropped.
func (n *Node) Recv(ctx context.Context) ([]byte, error) {
	if n.cfg.Rank == core.SenderID {
		return nil, errors.New("live: Recv on the sender rank")
	}
	select {
	case m := <-n.recvQ:
		// Copy before releasing: the receiver may still serve peer
		// snapshots out of the buffer, so it is never the caller's.
		out := make([]byte, len(m.Bytes()))
		copy(out, m.Bytes())
		m.Release()
		return out, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-n.closing:
		return nil, errors.New("live: node closed")
	}
}
