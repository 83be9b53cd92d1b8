package ipnet

import (
	"fmt"
	"time"

	"rmcast/internal/ethernet"
	"rmcast/internal/rng"
	"rmcast/internal/sim"
)

// FrameSender is the host's attachment to the network: either an
// ethernet.Tx (switched) or an *ethernet.Station (shared bus).
type FrameSender interface {
	// Send queues a frame, consuming the caller's frame reference;
	// false means it was dropped at the queue.
	Send(f *ethernet.Frame) bool
	// Queued returns the bytes currently queued for transmission.
	Queued() int
	// DrainTime estimates how long the medium needs to transmit n wire
	// bytes; the host uses it to wait for transmit-queue space.
	DrainTime(n int) time.Duration
}

// HostConfig configures one simulated end host.
type HostConfig struct {
	Addr  Addr
	Costs CostModel
	// TxQueueCap bounds the NIC/socket transmit backlog in wire bytes.
	// A datagram that does not fit waits, in order, for the queue to
	// drain — blocking sendto semantics, which is what Linux UDP does
	// with a full socket send buffer. Zero means unbounded.
	TxQueueCap int
	// RecvBuf is the default socket receive buffer in payload bytes.
	// Linux 2.2's default was 64 KB; the paper-era experiments ran with
	// the kernel default.
	RecvBuf int
	// ReasmTimeout discards incomplete fragment groups. Zero means a
	// 1-second default.
	ReasmTimeout time.Duration
	// Seed drives the host's receive-jitter randomness.
	Seed uint64
	// Pool is the buffer pool of the host's simulator, shared by every
	// host on it. Nil gives the host a pool of its own.
	Pool *Pool
}

// HostStats counts per-host activity.
type HostStats struct {
	SentDatagrams uint64
	SentBytes     uint64 // payload bytes
	RecvDatagrams uint64
	RecvBytes     uint64 // payload bytes
	SocketDrops   uint64 // datagrams lost to full socket receive buffers
	TxBlocked     uint64 // sends that had to wait for transmit-queue space
	ReasmDrops    uint64 // datagrams lost to incomplete reassembly
	Filtered      uint64 // multicast frames filtered by the NIC (not a member)
	NoPortDrops   uint64 // datagrams to unbound ports
	CPUBusy       time.Duration
}

type reasmKey struct {
	src Addr
	id  uint64
}

// reasmBuf is one fragment group: the fragments seen so far and buf,
// the single reassembly copy they land in. A completed group becomes
// the payload of the datagram it delivers and goes back to the pool
// with that datagram. buf keeps its capacity across recycles, so
// steady-state traffic of any fixed size class reassembles with zero
// allocation.
type reasmBuf struct {
	key   reasmKey
	have  []bool
	count int
	buf   []byte
	timer sim.EventID
}

// txFrame is a pooled frame-plus-fragment pair from the sending host's
// pool. Allocating them together means one free-list entry covers the
// whole per-fragment state, and the fragment's back-pointers let the
// release hook find its way home from wherever on the network the frame
// died or was delivered.
type txFrame struct {
	frame ethernet.Frame
	frag  fragment
}

// datagramBuf is a pooled datagram: the header struct handed through the
// send path and to socket handlers. dg.Payload aliases pb, the sent
// payload, on the send path and for a single-fragment datagram at a
// receiver, and the datagram holds one reference to it; or rb's buffer,
// for a datagram reassembled from fragments, and the datagram owns rb.
type datagramBuf struct {
	dg Datagram
	pb *payloadBuf
	rb *reasmBuf
}

// Host is one end host: a NIC, an IP input path with reassembly, UDP
// sockets, and a serial CPU.
type Host struct {
	sim   *sim.Simulator
	cfg   HostConfig
	tx    FrameSender
	eaddr ethernet.Addr

	cpuFree sim.Time
	groups  map[Addr]bool
	sockets map[int]*Socket
	// reasm holds the in-progress fragment groups; it is made at the
	// first multi-fragment datagram, which many runs never see.
	reasm    map[reasmKey]*reasmBuf
	nextIPID uint64
	outQ     []*datagramBuf // datagrams awaiting transmit-queue space
	outBusy  bool
	jitter   *rng.Rand
	// phase is the host's constant interrupt-phase offset, drawn once
	// from [0, RecvJitterNs). A constant offset desynchronizes otherwise
	// identical hosts without ever reordering frames within one host; a
	// small per-frame component (≤ 2 µs, below the minimum frame gap)
	// adds round-to-round variation.
	phase time.Duration
	pool  *Pool

	stats HostStats
}

// NewHost creates a host. Attach it to a switch or bus and then call
// SetTx with the resulting transmitter.
func NewHost(s *sim.Simulator, cfg HostConfig) *Host {
	if cfg.ReasmTimeout == 0 {
		cfg.ReasmTimeout = time.Second
	}
	if cfg.RecvBuf == 0 {
		cfg.RecvBuf = 64 * 1024
	}
	h := &Host{
		sim:     s,
		cfg:     cfg,
		eaddr:   ethernet.Addr(cfg.Addr),
		groups:  make(map[Addr]bool),
		sockets: make(map[int]*Socket),
		jitter:  rng.New(rng.Mix(cfg.Seed, uint64(cfg.Addr)+1)),
		pool:    cfg.Pool,
	}
	if h.pool == nil {
		h.pool = NewPool()
	}
	if j := cfg.Costs.RecvJitterNs; j > 0 {
		h.phase = time.Duration(h.jitter.Float64() * j)
	}
	return h
}

// SetTx wires the host's outbound path.
func (h *Host) SetTx(tx FrameSender) { h.tx = tx }

// Addr returns the host address.
func (h *Host) Addr() Addr { return h.cfg.Addr }

// EthernetAddr returns the station address for wiring.
func (h *Host) EthernetAddr() ethernet.Addr { return h.eaddr }

// Sim returns the simulator the host runs on.
func (h *Host) Sim() *sim.Simulator { return h.sim }

// Costs returns the host's CPU cost model.
func (h *Host) Costs() CostModel { return h.cfg.Costs }

// Stats returns a snapshot of the host counters.
func (h *Host) Stats() HostStats { return h.stats }

// JoinGroup subscribes the host's NIC to a multicast group.
func (h *Host) JoinGroup(g Addr) {
	if !g.IsMulticast() {
		panic(fmt.Sprintf("ipnet: JoinGroup(%d): not a multicast address", g))
	}
	h.groups[g] = true
}

// Exec charges cost to the host CPU and runs fn when it completes. The
// CPU is a serial resource: work queues behind whatever the host is
// already doing. This is the mechanism behind every CPU-bound effect in
// the study (ACK implosion, user-level relay latency, copy overhead).
func (h *Host) Exec(cost time.Duration, fn func()) {
	now := h.sim.Now()
	start := h.cpuFree
	if start < now {
		start = now
	}
	end := start + cost
	h.cpuFree = end
	h.stats.CPUBusy += cost
	h.sim.At(end, fn)
}

// ExecFunc is Exec for the allocation-free callback form: the hot
// receive and send paths use it so charging CPU costs never builds a
// closure.
func (h *Host) ExecFunc(cost time.Duration, fn func(a, b any), a, b any) {
	now := h.sim.Now()
	start := h.cpuFree
	if start < now {
		start = now
	}
	end := start + cost
	h.cpuFree = end
	h.stats.CPUBusy += cost
	h.sim.AtFunc(end, fn, a, b)
}

// UserCopy charges the user-space copy cost for n bytes (message buffer
// → protocol buffer or the reverse) and runs fn when done.
func (h *Host) UserCopy(n int, fn func()) {
	h.Exec(PerByte(n, h.cfg.Costs.UserCopyPerByteNs), fn)
}

// SetTimer schedules fn after d of virtual time; when it fires it charges
// TimerOverhead to the CPU before running fn. The returned EventID can be
// passed to CancelTimer. Note that a timer that has fired but is waiting
// for the CPU can no longer be cancelled; protocol code guards against
// stale firings with generation counters.
func (h *Host) SetTimer(d time.Duration, fn func()) sim.EventID {
	return h.sim.AfterFunc(d, timerFire, h, fn)
}

func timerFire(a, b any) {
	h := a.(*Host)
	h.ExecFunc(h.cfg.Costs.TimerOverhead, runNullary, b, nil)
}

func runNullary(a, _ any) { a.(func())() }

// CancelTimer cancels a pending timer.
func (h *Host) CancelTimer(id sim.EventID) { h.sim.Cancel(id) }

// Now returns the current virtual time.
func (h *Host) Now() sim.Time { return h.sim.Now() }

// RecvFrame implements ethernet.Receiver: the NIC input path. The host
// receives one frame reference and releases it when the fragment has
// been filtered, consumed by reassembly, or delivered.
func (h *Host) RecvFrame(f *ethernet.Frame) {
	frag, ok := f.Payload.(*fragment)
	if !ok {
		panic("ipnet: frame payload is not an IP fragment")
	}
	if f.Multicast {
		// Hardware multicast filtering: frames for groups the host has
		// not joined cost no CPU at all, as with the paper's 3C905 NICs.
		if !h.groups[frag.dst] {
			h.stats.Filtered++
			f.Release()
			return
		}
		if frag.src == h.cfg.Addr {
			// No multicast loopback (IP_MULTICAST_LOOP off).
			f.Release()
			return
		}
	} else if f.Dst != h.eaddr {
		h.stats.Filtered++
		f.Release()
		return
	}
	if j := h.cfg.Costs.RecvJitterNs; j > 0 {
		perFrame := j / 10
		if perFrame > 2000 {
			perFrame = 2000
		}
		d := h.phase + time.Duration(h.jitter.Float64()*perFrame)
		h.sim.AfterFunc(d, hostFragInput, h, f)
		return
	}
	h.ExecFunc(h.cfg.Costs.FragOverhead, hostIPInput, h, f)
}

// hostFragInput fires after receive jitter and charges the kernel's
// per-fragment input cost.
func hostFragInput(a, b any) {
	h := a.(*Host)
	h.ExecFunc(h.cfg.Costs.FragOverhead, hostIPInput, h, b)
}

// hostIPInput runs after the kernel has processed one received fragment.
func hostIPInput(a, b any) {
	h := a.(*Host)
	f := b.(*ethernet.Frame)
	h.ipInput(f.Payload.(*fragment))
	f.Release()
}

// ipInput consumes one fragment. A single-fragment datagram is delivered
// with its payload aliasing the sender's payload buffer, of which it
// takes a reference — no receiver copies it. Multi-fragment groups are
// copied once, into a pooled reassembly buffer at each
// fragment's datagram offset.
func (h *Host) ipInput(frag *fragment) {
	if frag.count == 1 {
		db := h.pool.getDatagram()
		db.dg = Datagram{
			Src: frag.src, Dst: frag.dst,
			SrcPort: frag.srcPort, DstPort: frag.dstPort,
			Payload: frag.payload,
		}
		if db.pb = frag.pb; db.pb != nil { // nil on a cross-shard clone
			db.pb.retain()
		}
		h.deliver(db)
		return
	}
	key := reasmKey{src: frag.src, id: frag.id}
	rb, ok := h.reasm[key]
	if !ok {
		if h.reasm == nil {
			h.reasm = make(map[reasmKey]*reasmBuf)
		}
		rb = h.pool.getReasm(frag)
		h.reasm[key] = rb
		rb.timer = h.sim.AfterFunc(h.cfg.ReasmTimeout, reasmExpire, h, rb)
	}
	if rb.have[frag.index] {
		return // duplicate fragment
	}
	rb.have[frag.index] = true
	rb.count++
	off := 0
	if frag.index > 0 {
		// Fragment 0 additionally carries the (virtual) UDP header, so
		// later fragments start UDPHeader bytes earlier in the payload
		// than their raw IP offset suggests.
		off = frag.index*FragPayload - UDPHeader
	}
	copy(rb.buf[off:], frag.payload)
	if rb.count == frag.count {
		delete(h.reasm, key)
		h.sim.Cancel(rb.timer)
		db := h.pool.getDatagram()
		db.rb = rb
		db.dg = Datagram{
			Src: frag.src, Dst: frag.dst,
			SrcPort: frag.srcPort, DstPort: frag.dstPort,
			Payload: rb.buf,
		}
		h.deliver(db)
	}
}

// reasmExpire discards an incomplete fragment group. Completion cancels
// the timer (O(1) under the slab scheduler), so firing means the group
// is genuinely still incomplete.
func reasmExpire(a, b any) {
	h := a.(*Host)
	rb := b.(*reasmBuf)
	if h.reasm[rb.key] != rb {
		return
	}
	delete(h.reasm, rb.key)
	h.stats.ReasmDrops++
	h.pool.putReasm(rb)
}

// deliver hands a complete datagram to its socket, which now owns db.
func (h *Host) deliver(db *datagramBuf) {
	sock, ok := h.sockets[db.dg.DstPort]
	if !ok {
		h.stats.NoPortDrops++
		h.pool.putDatagram(db)
		return
	}
	sock.enqueue(db)
}

// output queues a datagram for the wire, in order, waiting for
// transmit-queue space as a blocking sendto would. Called after the
// send syscall cost has been charged.
func (h *Host) output(db *datagramBuf) {
	if h.tx == nil {
		panic("ipnet: host has no transmitter; call SetTx")
	}
	h.outQ = append(h.outQ, db)
	if !h.outBusy {
		h.outBusy = true
		h.drainOut()
	}
}

func hostOutput(a, b any) { a.(*Host).output(b.(*datagramBuf)) }

func hostDrainOut(a, _ any) { a.(*Host).drainOut() }

// drainOut moves queued datagrams onto the wire while the transmit
// queue has room; when it does not, it waits for the estimated drain
// time and retries. Ordering is preserved — a blocked datagram blocks
// everything behind it, exactly like a full UDP socket send buffer.
func (h *Host) drainOut() {
	for len(h.outQ) > 0 {
		db := h.outQ[0]
		total := WireBytes(len(db.dg.Payload))
		if cap := h.cfg.TxQueueCap; cap > 0 && h.tx.Queued()+total > cap {
			h.stats.TxBlocked++
			need := h.tx.Queued() + total - cap
			wait := h.tx.DrainTime(need)
			if wait < time.Microsecond {
				wait = time.Microsecond
			}
			h.sim.AfterFunc(wait, hostDrainOut, h, nil)
			return
		}
		// Pop by shifting down: q = q[1:] would strand the backing
		// array's head and force a fresh allocation per cycle.
		n := copy(h.outQ, h.outQ[1:])
		h.outQ[n] = nil
		h.outQ = h.outQ[:n]
		h.transmit(db)
	}
	h.outBusy = false
}

// transmit fragments one datagram onto the wire. Fragmentation copies no
// bytes: every fragment's payload is a subslice of the datagram's
// payload buffer, each fragment holds a reference to it, and each frame
// carries the full datagram metadata so reassembly works regardless of
// which fragments arrive (or die) first.
func (h *Host) transmit(db *datagramBuf) {
	dg := &db.dg
	mc := dg.Dst.IsMulticast()
	var edst ethernet.Addr
	if mc {
		edst = ethernet.Broadcast
	} else {
		edst = ethernet.Addr(dg.Dst)
	}
	id := h.nextIPID
	h.nextIPID++
	total := len(dg.Payload)
	udp := total + UDPHeader
	count := FragmentCount(total)

	for i := 0; i < count; i++ {
		chunk := udp - i*FragPayload
		if chunk > FragPayload {
			chunk = FragPayload
		}
		lo := 0
		if i > 0 {
			lo = i*FragPayload - UDPHeader
		}
		hi := i*FragPayload + chunk - UDPHeader
		tf := h.pool.getTxFrame()
		db.pb.retain()
		tf.frag = fragment{
			tf: tf, owner: h.pool, pb: db.pb,
			src: h.cfg.Addr, dst: dg.Dst,
			srcPort: dg.SrcPort, dstPort: dg.DstPort,
			id: id, index: i, count: count, total: total,
			payload: dg.Payload[lo:hi],
		}
		f := &tf.frame
		f.Src = h.eaddr
		f.Dst = edst
		f.Multicast = mc
		f.WireBytes = ethernet.WireSize(chunk + IPHeader)
		f.Payload = &tf.frag
		f.SetFree(releaseTxFrame)
		h.tx.Send(f)
	}
	h.stats.SentDatagrams++
	h.stats.SentBytes += uint64(total)
	h.pool.putDatagram(db)
}
