package ipnet

import (
	"cmp"
	"fmt"
	"slices"
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

// reasmBuf is one fragment group: the fragments seen so far and the
// bytes they belong to. Every fragment of a datagram is a slice of the
// sender's payload buffer, so the group holds one reference to it, pb,
// copies nothing, and on completion hands that reference to the
// datagram it delivers. Only a fragment without that buffer — a
// sharded engine's clone — makes the group copy: it moves what it holds
// into buf, drops pb, and every later fragment lands in buf at its
// offset; that datagram then owns the group until it is read. buf keeps
// its capacity across recycles, so copying groups of any fixed size
// class reassemble with zero allocation once warm.
type reasmBuf struct {
	key     reasmKey
	have    []bool
	count   int
	pb      *payloadBuf // nil once the group copies
	buf     []byte
	timer   sim.EventID
	expires sim.Time  // when timer fires
	older   *reasmBuf // the host's open group opened before this one
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
// payload, on the send path and at a receiver, and the datagram holds
// one reference to it; or, for a datagram reassembled from a sharded
// engine's cloned fragments, rb's buffer, and the datagram owns rb.
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
	// reasm is the newest open fragment group, linked to the older ones.
	// A sender's fragments arrive in a row, so a fragment almost always
	// belongs to the newest group, the first a lookup tries.
	reasm    *reasmBuf
	nextIPID uint64
	outQ     []*datagramBuf // datagrams awaiting transmit-queue space
	outBusy  bool
	// inputs counts the hostIPInput events booked and not yet fired.
	inputs uint32
	jitter *rng.Rand
	// phase is the host's constant interrupt-phase offset, drawn once
	// from [0, RecvJitterNs). A constant offset desynchronizes otherwise
	// identical hosts; a small per-frame component (≤ 2 µs) adds
	// round-to-round variation. At 100 Mbit/s that is below the minimum
	// frame gap (an 84-byte frame takes 6.72 µs), so a host's frames keep
	// their order; at 1 Gbit/s (672 ns) it is not, and a full fragment
	// followed by a short last one can swap.
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
		h.pool = new(Pool)
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
	h.sim.At(h.book(cost), fn)
}

// ExecFunc is Exec for the allocation-free callback form: the hot
// receive and send paths use it so charging CPU costs never builds a
// closure.
func (h *Host) ExecFunc(cost time.Duration, fn func(a, b any), a, b any) {
	h.sim.AtFunc(h.book(cost), fn, a, b)
}

// book charges cost to the CPU, behind the work already booked, and
// returns the instant it completes.
func (h *Host) book(cost time.Duration) sim.Time {
	end := max(h.cpuFree, h.sim.Now()) + cost
	h.cpuFree = end
	h.stats.CPUBusy += cost
	return end
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
	h.fragInput(f)
}

// hostFragInput fires after receive jitter.
func hostFragInput(a, b any) { a.(*Host).fragInput(b.(*ethernet.Frame)) }

// fragInput charges the kernel's per-fragment input cost for f. Its IP
// input runs when the charge ends, in an event, unless it settles: a
// fragment that neither delivers nor meets its group's expiry touches
// only its group and its frame, so it is taken in at once, timed as if
// at end. The CPU takes fragments in the order they are booked, so one
// settles only with no earlier fragment still waiting for its event.
func (h *Host) fragInput(f *ethernet.Frame) {
	end := h.book(h.cfg.Costs.FragOverhead)
	if frag := f.Payload.(*fragment); h.inputs == 0 && h.settles(frag, end) {
		h.ipInput(frag, end)
		f.Release()
		return
	}
	h.inputs++
	h.sim.AtFunc(end, hostIPInput, h, f)
}

// settles reports whether frag, taken in at end, leaves its datagram
// incomplete — it is a duplicate, or more fragments are missing — and
// its group, if open, expires after end. A single fragment completes
// its datagram.
func (h *Host) settles(frag *fragment, end sim.Time) bool {
	count := 0
	if rb, _ := h.group(reasmKey{src: frag.src, id: frag.id}); rb != nil {
		if rb.expires <= end {
			return false
		}
		if rb.have[frag.index] {
			return true
		}
		count = rb.count
	}
	return count+1 < frag.count
}

// hostIPInput runs after the kernel has processed one received fragment.
func hostIPInput(a, b any) {
	h := a.(*Host)
	f := b.(*ethernet.Frame)
	h.inputs--
	h.ipInput(f.Payload.(*fragment), h.sim.Now())
	f.Release()
}

// ipInput consumes one fragment, taken in at the instant at. A datagram
// is delivered with its payload aliasing the sender's payload buffer,
// of which it holds a reference — no receiver copies it. A single
// fragment is delivered at once; a group collects its fragments and
// delivers when the last one arrives.
func (h *Host) ipInput(frag *fragment, at sim.Time) {
	if frag.count == 1 {
		db := take(h.pool, &h.pool.dgrams)
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
	rb, newer := h.group(key)
	if rb == nil {
		rb, newer = h.pool.getReasm(frag), nil
		rb.older, h.reasm = h.reasm, rb
		rb.expires = at + h.cfg.ReasmTimeout
		rb.timer = h.sim.AtFunc(rb.expires, reasmExpire, h, rb)
		if rb.pb = frag.pb; rb.pb != nil {
			rb.pb.retain()
		} else {
			rb.copyFrom(frag.total, nil)
		}
	}
	if rb.have[frag.index] {
		return // duplicate fragment
	}
	rb.have[frag.index] = true
	rb.count++
	if rb.pb == nil || frag.pb != rb.pb {
		if rb.pb != nil {
			rb.copyFrom(frag.total, rb.pb.b)
			rb.pb.release()
			rb.pb = nil
		}
		off := 0
		if frag.index > 0 {
			// Fragment 0 additionally carries the (virtual) UDP header,
			// so later fragments start UDPHeader bytes earlier in the
			// payload than their raw IP offset suggests.
			off = frag.index*FragPayload - UDPHeader
		}
		copy(rb.buf[off:], frag.payload)
	}
	if rb.count == frag.count {
		h.unlink(rb, newer)
		h.sim.Cancel(rb.timer)
		db := take(h.pool, &h.pool.dgrams)
		db.dg = Datagram{
			Src: frag.src, Dst: frag.dst,
			SrcPort: frag.srcPort, DstPort: frag.dstPort,
		}
		if db.pb = rb.pb; db.pb != nil {
			// The group's reference passes to the datagram.
			rb.pb = nil
			db.dg.Payload = db.pb.b
			h.pool.putReasm(rb)
		} else {
			db.rb = rb
			db.dg.Payload = rb.buf
		}
		h.deliver(db)
	}
}

// copyFrom sizes rb's copy for a datagram of total bytes and fills it
// from held, the sender's buffer the group has aliased so far (nil when
// it holds nothing yet).
func (rb *reasmBuf) copyFrom(total int, held []byte) {
	if cap(rb.buf) >= total {
		rb.buf = rb.buf[:total]
	} else {
		rb.buf = make([]byte, total)
	}
	copy(rb.buf, held)
}

// group returns the open fragment group key names, or nil, and the
// group opened just after it (nil for the newest), which unlink needs.
func (h *Host) group(key reasmKey) (rb, newer *reasmBuf) {
	for rb = h.reasm; rb != nil && rb.key != key; rb = rb.older {
		newer = rb
	}
	return rb, newer
}

// unlink removes rb, opened just before newer, from the open groups.
func (h *Host) unlink(rb, newer *reasmBuf) {
	if newer == nil {
		h.reasm = rb.older
	} else {
		newer.older = rb.older
	}
}

// reasmExpire discards an incomplete fragment group. Completion cancels
// the timer (O(1) under the slab scheduler), so firing means the group
// is genuinely still incomplete.
func reasmExpire(a, b any) {
	h := a.(*Host)
	rb := b.(*reasmBuf)
	open, newer := h.group(rb.key)
	if open != rb {
		return
	}
	h.unlink(rb, newer)
	h.stats.ReasmDrops++
	h.pool.putReasm(rb)
}

// Reclaim hands back to the pool the buffers the host still holds when
// its simulator will never step again: the datagrams in its transmit
// backlog and in its sockets' queues, and its open fragment groups.
// Buffers that live events still hold (a frame on the wire, a send
// being charged) die with the simulator. The walk is fixed — backlog,
// then sockets by port, then groups by source and IP ID — so what the
// pool's free lists hold, and so what a later run draws, never depends
// on map order or on the order the groups opened in.
func (h *Host) Reclaim() {
	for _, db := range h.outQ {
		h.pool.putDatagram(db)
	}
	h.outQ = nil
	var ports []int
	for port, s := range h.sockets {
		if s.n > 0 {
			ports = append(ports, port)
		}
	}
	slices.Sort(ports)
	for _, port := range ports {
		h.sockets[port].discard()
	}
	if h.reasm == nil {
		return
	}
	var groups []*reasmBuf
	for rb := h.reasm; rb != nil; rb = rb.older {
		groups = append(groups, rb)
	}
	slices.SortFunc(groups, func(a, b *reasmBuf) int {
		return cmp.Or(cmp.Compare(a.key.src, b.key.src), cmp.Compare(a.key.id, b.key.id))
	})
	for _, rb := range groups {
		h.pool.putReasm(rb)
	}
	h.reasm = nil
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
		tf := take(h.pool, &h.pool.frames)
		db.pb.retain()
		tf.frag = fragment{
			tf: tf, pb: db.pb,
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
