package live

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"
	"unsafe"

	"rmcast/internal/packet"
	"rmcast/internal/rng"
	"rmcast/internal/sim"
	"rmcast/internal/trace"
)

// LoopConfig parameterizes a deterministic in-process loopback network.
type LoopConfig struct {
	// Seed drives every random draw (loss, jitter). Same seed, same
	// node construction order, same stimuli → identical run.
	Seed uint64
	// Delay is the one-way datagram latency (default 100µs — a LAN
	// round trip of 200µs, the scale of the paper's Ethernet).
	Delay time.Duration
	// Jitter adds a uniform [0,Jitter) extra latency per datagram.
	// Delivery stays FIFO per (source, destination) path — switched
	// Ethernet does not reorder frames on a path, and unordered
	// delivery of a same-instant window burst would be a different
	// (and unrealistically hostile) network than the paper's.
	Jitter time.Duration
	// LossRate drops each datagram independently per destination with
	// this probability. Hello packets are exempt, so discovery always
	// converges and heartbeats model a healthy control plane.
	LossRate float64
}

// LoopNet is a deterministic loopback network for live nodes: the same
// Node code that runs over UDP sockets (same core.Env, same event-loop
// logic, same discovery and failure detection) runs instead over
// channel-free in-process delivery scheduled on a discrete-event
// simulator, which is also every node's timer queue. There are no
// per-node goroutines — the driver goroutine owns the simulator and
// executes all node work — so a run is a pure function of (config,
// seed, stimuli): replayable, fuzzable, and auditable by the
// internal/check invariant suite.
//
// Confinement contract: LoopNet and its nodes must be driven from one
// goroutine (the test), via Run/At and the nodes' non-blocking entry
// points (startSend, Close). The inbox is the only cross-goroutine
// seam, kept so that work posted from another goroutine cannot corrupt
// state.
type LoopNet struct {
	cfg   LoopConfig
	sim   *sim.Simulator
	rand  *rng.Rand
	group netip.AddrPort

	// inbox is the cross-goroutine post queue: nodes enqueue event-loop
	// work here and the driver drains it between simulator events, so
	// every posted fn runs at the virtual instant that produced it.
	mu    sync.Mutex
	inbox []loopWork
	// spare is the drained batch's storage, swapped back in as the next
	// inbox so steady-state posting appends into existing capacity.
	// It and the stock are the driver's alone.
	spare []loopWork
	loopStock

	ports []*loopPort // attach order; fan-out order for multicasts
}

// loopStock is a loopback net's delivery records and frame copies: the
// free lists send and copyFrame draw from, and every record and copy
// the stock ever made, so that a net's release can take back the ones
// still in flight. A one-shot run hands its stock to the next through
// loopStocks; frame copies keep their bytes' capacity.
type loopStock struct {
	free      []*loopDatagram
	frameFree []*loopFrame
	dgs       []*loopDatagram
	frames    []*loopFrame
	// events and msg are RunLoopScenario's trace scratch and message
	// bytes. They keep their capacity from run to run, up to
	// loopScratchCap bytes each.
	events []trace.Event
	msg    []byte
}

// loopScratchCap bounds the bytes of trace scratch and of message a
// stock keeps: release drops a scratch that grew past it, so a stock
// never holds a huge run's peak. A 256 KiB transfer to 8 receivers at
// 1% loss traces 7 500–13 500 events (at most ~630 KiB).
const loopScratchCap = 16 << 20

// loopStocks is the process's LIFO free list of loopback stocks:
// NewLoopNet pops one and release pushes it back, so a run draws its
// delivery records and frame copies from what an earlier run returned.
// It holds at most as many stocks as loopback runs the process ever had
// going at once.
var loopStocks struct {
	mu   sync.Mutex
	list []loopStock
}

// loopWork is one unit of posted event-loop work: a closure, or — the
// per-datagram case, kept closure-free — a datagram for its
// destination node's onWire.
type loopWork struct {
	fn func()
	dg *loopDatagram
}

// loopDatagram is one datagram in flight: scheduled on the simulator by
// send, queued on the inbox when it arrives, recycled once handled.
type loopDatagram struct {
	to    *loopPort
	frame *loopFrame
	src   netip.AddrPort
}

// loopFrame is the network's copy of one WriteTo's frame — the codec
// only lends it — shared by every delivery the write fans out to. The
// write and each scheduled delivery hold a reference; the last release
// returns the copy to the free list, where b keeps its capacity.
type loopFrame struct {
	b    []byte
	refs int
}

// NewLoopNet creates an empty loopback network.
func NewLoopNet(cfg LoopConfig) *LoopNet {
	if cfg.Delay == 0 {
		cfg.Delay = 100 * time.Microsecond
	}
	ln := &LoopNet{
		cfg:  cfg,
		sim:  sim.New(),
		rand: rng.New(rng.Mix(cfg.Seed, 0x4C4F4F50)), // "LOOP"
		// A synthetic group address: never touches a real socket, but
		// keeps the node's multicast/unicast addressing logic intact.
		group: netip.AddrPortFrom(netip.AddrFrom4([4]byte{239, 255, 77, 1}), 7777),
	}
	loopStocks.mu.Lock()
	if k := len(loopStocks.list) - 1; k >= 0 {
		ln.loopStock = loopStocks.list[k]
		loopStocks.list[k] = loopStock{}
		loopStocks.list = loopStocks.list[:k]
	}
	loopStocks.mu.Unlock()
	return ln
}

// release hands the net's simulator and stock back for later runs, once
// every node on it is closed and nothing will drive it again. Every
// record and frame copy returns to the free lists, in flight or not:
// the simulator, emptied, drops the events that held them. The trace
// scratch is emptied; it and the message bytes are dropped past
// loopScratchCap. Only a one-shot run (RunLoopScenario) releases its
// net; one a caller built stays the caller's. Releasing with a node
// still open panics.
func (ln *LoopNet) release() {
	for _, p := range ln.ports {
		if !p.closed {
			panic(fmt.Sprintf("live: loopback net released with rank %d open", p.n.cfg.Rank))
		}
	}
	ln.sim.Release()
	st := ln.loopStock
	st.free = st.free[:0]
	for _, dg := range st.dgs {
		*dg = loopDatagram{}
		st.free = append(st.free, dg)
	}
	st.frameFree = st.frameFree[:0]
	for _, f := range st.frames {
		f.refs = 0
		st.frameFree = append(st.frameFree, f)
	}
	st.events = st.events[:0]
	if cap(st.events)*int(unsafe.Sizeof(trace.Event{})) > loopScratchCap {
		st.events = nil
	}
	if cap(st.msg) > loopScratchCap {
		st.msg = nil
	}
	ln.sim, ln.loopStock, ln.ports = nil, loopStock{}, nil
	loopStocks.mu.Lock()
	loopStocks.list = append(loopStocks.list, st)
	loopStocks.mu.Unlock()
}

// Node attaches one live node to the network. The Group, Interface,
// and ReadBuffer fields of cfg are ignored: addressing is synthetic
// (one port per rank) and delivery is in-process. Each rank may attach
// once; attach nodes in a fixed order for reproducible runs.
func (ln *LoopNet) Node(cfg Config) (*Node, error) {
	for _, p := range ln.ports {
		if p.n.cfg.Rank == cfg.Rank {
			return nil, fmt.Errorf("live: loopback rank %d already attached", cfg.Rank)
		}
	}
	n, err := newNode(cfg, ln.group, loopClock{ln}, ln)
	if err != nil {
		return nil, err
	}
	port := &loopPort{
		ln:   ln,
		n:    n,
		idx:  len(ln.ports),
		addr: netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 9, 1}), 20000+uint16(cfg.Rank)),
	}
	n.tr = port
	ln.ports = append(ln.ports, port)
	n.startHello()
	return n, nil
}

// Now returns the network's virtual clock.
func (ln *LoopNet) Now() time.Duration { return ln.sim.Now() }

// At schedules fn to run on the driver at absolute virtual time t
// (which must not be in the past). Stimuli — transfers, crashes — are
// injected this way so they land at exact, reproducible instants.
func (ln *LoopNet) At(t time.Duration, fn func()) { ln.sim.At(t, fn) }

// Run drives the network until the next event would land past `until`
// (events at exactly `until` fire) or no work remains. Posted node work
// is drained before and after every simulator event.
func (ln *LoopNet) Run(until time.Duration) {
	for {
		ln.drain()
		at, ok := ln.sim.NextAt()
		if !ok || at > until {
			break
		}
		ln.sim.Step()
	}
	ln.drain()
}

// enqueue adds event-loop work to the inbox (any goroutine).
func (ln *LoopNet) enqueue(w loopWork) {
	ln.mu.Lock()
	ln.inbox = append(ln.inbox, w)
	ln.mu.Unlock()
}

// drain runs all posted node work, including work posted by the work it
// runs, in FIFO order (driver only).
func (ln *LoopNet) drain() {
	for {
		ln.mu.Lock()
		batch := ln.inbox
		ln.inbox = ln.spare
		ln.mu.Unlock()
		for _, w := range batch {
			if w.dg == nil {
				w.fn()
				continue
			}
			w.dg.to.n.onWire(w.dg.frame.b, w.dg.src)
			ln.recycle(w.dg)
		}
		clear(batch)
		ln.spare = batch[:0]
		if len(batch) == 0 {
			return
		}
	}
}

// send schedules one datagram for delivery: an independent loss draw
// per destination (matching a switch dropping on one output port), then
// base delay plus jitter, clamped so a path never reorders — a later
// send on the same (from, to) path never arrives before an earlier one
// (same-instant deliveries fire in scheduling order).
func (ln *LoopNet) send(from, to *loopPort, f *loopFrame) {
	if ln.cfg.LossRate > 0 && !isHelloWire(f.b) && ln.rand.Bool(ln.cfg.LossRate) {
		return
	}
	d := ln.cfg.Delay
	if ln.cfg.Jitter > 0 {
		d += time.Duration(ln.rand.Intn(int(ln.cfg.Jitter)))
	}
	at := ln.sim.Now() + d
	if to.idx >= len(from.lastArrival) {
		from.lastArrival = append(from.lastArrival, make([]time.Duration, len(ln.ports)-len(from.lastArrival))...)
	}
	if prev := from.lastArrival[to.idx]; at < prev {
		at = prev
	}
	from.lastArrival[to.idx] = at
	var dg *loopDatagram
	if k := len(ln.free); k > 0 {
		dg, ln.free = ln.free[k-1], ln.free[:k-1]
	} else {
		dg = new(loopDatagram)
		ln.dgs = append(ln.dgs, dg)
	}
	f.refs++
	*dg = loopDatagram{to: to, frame: f, src: from.addr}
	ln.sim.AtFunc(at, arriveLoop, dg, nil)
}

// recycle returns a handled delivery record to the free list (driver
// only), dropping its references.
func (ln *LoopNet) recycle(dg *loopDatagram) {
	ln.releaseFrame(dg.frame)
	*dg = loopDatagram{}
	ln.free = append(ln.free, dg)
}

// copyFrame copies b into a frame from the free list, holding one
// reference for the caller (driver only).
func (ln *LoopNet) copyFrame(b []byte) *loopFrame {
	var f *loopFrame
	if k := len(ln.frameFree); k > 0 {
		f, ln.frameFree = ln.frameFree[k-1], ln.frameFree[:k-1]
	} else {
		f = new(loopFrame)
		ln.frames = append(ln.frames, f)
	}
	f.b = append(f.b[:0], b...)
	f.refs = 1
	return f
}

// releaseFrame drops one reference to f, returning it to the free list with
// the last (driver only).
func (ln *LoopNet) releaseFrame(f *loopFrame) {
	if f.refs--; f.refs == 0 {
		ln.frameFree = append(ln.frameFree, f)
	}
}

// arriveLoop fires when a datagram reaches its destination: it joins
// the inbox behind whatever the node has already been posted.
func arriveLoop(a, _ any) {
	dg := a.(*loopDatagram)
	ln := dg.to.ln
	if dg.to.closed {
		ln.recycle(dg) // the destination node closed while this was in flight
		return
	}
	ln.enqueue(loopWork{dg: dg})
}

// isHelloWire peeks the packet type byte (packet.EncodeTo layout)
// without a full decode.
func isHelloWire(wire []byte) bool {
	return len(wire) > 2 && packet.Type(wire[2]) == packet.TypeHello
}

// loopPort is one node's transport on the loopback network. Its
// methods run in driver context (the node's event loop is the driver).
type loopPort struct {
	ln     *LoopNet
	n      *Node
	addr   netip.AddrPort
	idx    int // attach order
	closed bool
	// lastArrival is the latest scheduled delivery per destination,
	// indexed by its attach order (zero: none yet), enforcing the
	// per-path FIFO contract under jitter.
	lastArrival []time.Duration
}

func (p *loopPort) LocalAddr() *net.UDPAddr { return net.UDPAddrFromAddrPort(p.addr) }

func (p *loopPort) Close() { p.closed = true }

func (p *loopPort) WriteTo(b []byte, addr netip.AddrPort) {
	if p.closed {
		return
	}
	ln := p.ln
	f := ln.copyFrame(b)
	defer ln.releaseFrame(f)
	if addr == ln.group {
		// Multicast: fan out to every other attached port. No loopback
		// to self — the node would discard it anyway, as a UDP reader
		// drops its own looped-back multicast.
		for _, q := range ln.ports {
			if q != p {
				ln.send(p, q, f)
			}
		}
		return
	}
	for _, q := range ln.ports {
		if addr == q.addr {
			ln.send(p, q, f)
			return
		}
	}
}

// loopClock reads the network's virtual clock.
type loopClock struct{ ln *LoopNet }

func (c loopClock) Now() time.Duration { return c.ln.sim.Now() }
