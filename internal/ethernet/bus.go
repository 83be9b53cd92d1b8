package ethernet

import (
	"time"

	"rmcast/internal/rng"
	"rmcast/internal/sim"
)

// BusConfig describes a shared CSMA/CD Ethernet segment.
type BusConfig struct {
	// Rate is the bus bandwidth.
	Rate Rate
	// SlotTime is the collision window: two stations that begin
	// transmitting within one slot of each other collide. Classic
	// Ethernet uses 512 bit times (5.12 µs at 100 Mbps).
	SlotTime time.Duration
	// JamTime is how long the medium stays unusable after a collision.
	JamTime time.Duration
	// MaxAttempts is the transmit attempt limit before a frame is
	// dropped (16 in the standard).
	MaxAttempts int
	// StationQueueCap bounds each station's transmit queue in wire
	// bytes; zero means unbounded.
	StationQueueCap int
	// Seed seeds the deterministic backoff randomness.
	Seed uint64
}

// DefaultBusConfig returns the standard 100 Mbps CSMA/CD parameters.
func DefaultBusConfig() BusConfig {
	return BusConfig{
		Rate:        Rate100Mbps,
		SlotTime:    5120 * time.Nanosecond,
		JamTime:     3200 * time.Nanosecond,
		MaxAttempts: 16,
	}
}

// Bus is a single shared collision domain implementing 1-persistent
// CSMA/CD with binary exponential backoff. Every frame is physically
// heard by every station; stations filter by destination address and
// group membership, so delivering a frame costs nothing at non-addressed
// stations (hardware address filtering).
//
// The contention model is event-driven: the first station to start
// transmitting on an idle medium opens a one-slot vulnerable window. Any
// other station that starts within that window collides with it; after
// the window closes, carrier sense defers all newcomers. This captures
// the behavior the paper cares about — throughput collapse and unfairness
// when many stations transmit simultaneously — without bit-level cable
// modeling.
type Bus struct {
	sim      *sim.Simulator
	cfg      BusConfig
	stations []*Station

	busyUntil sim.Time
	// window tracks the stations contending in the current vulnerable
	// window; empty when no transmission is starting.
	window      []*Station
	windowStart sim.Time
	resolveAt   sim.EventID

	stats BusStats
}

// BusStats counts shared-medium activity.
type BusStats struct {
	Delivered  uint64 // frames successfully transmitted
	Collisions uint64 // collision events (any number of stations)
	Aborted    uint64 // frames dropped after MaxAttempts
	QueueDrops uint64 // frames rejected at full station queues
}

// NewBus returns a bus with no stations.
func NewBus(s *sim.Simulator, cfg BusConfig) *Bus {
	if cfg.Rate <= 0 {
		cfg.Rate = Rate100Mbps
	}
	if cfg.SlotTime <= 0 {
		cfg.SlotTime = 5120 * time.Nanosecond
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 16
	}
	return &Bus{sim: s, cfg: cfg}
}

// Stats returns a copy of the bus counters.
func (b *Bus) Stats() BusStats { return b.stats }

// Station is one CSMA/CD attachment point.
type Station struct {
	bus      *Bus
	addr     Addr
	recv     Receiver
	groups   func(*Frame) bool // extra acceptance test for multicast
	queue    []*Frame
	queued   int // wire bytes
	attempts int
	active   bool // head-of-queue frame is contending or backing off
	rng      *rng.Rand
}

// Attach adds a station to the bus. recv receives frames addressed to
// addr, broadcast frames, and multicast frames accepted by acceptMC
// (nil accepts all multicast).
func (b *Bus) Attach(addr Addr, recv Receiver, acceptMC func(*Frame) bool) *Station {
	st := &Station{
		bus:    b,
		addr:   addr,
		recv:   recv,
		groups: acceptMC,
		rng:    rng.New(rng.Mix(b.cfg.Seed, uint64(addr)+1)),
	}
	b.stations = append(b.stations, st)
	return st
}

// Addr returns the station address.
func (st *Station) Addr() Addr { return st.addr }

// popHead removes the head-of-queue frame by shifting down, keeping the
// queue's backing array reusable (q = q[1:] would strand its head and
// reallocate every cycle).
func (st *Station) popHead() {
	n := copy(st.queue, st.queue[1:])
	st.queue[n] = nil
	st.queue = st.queue[:n]
}

// Queued returns the wire bytes waiting in the station's transmit queue.
func (st *Station) Queued() int { return st.queued }

// DrainTime estimates the time to transmit n bytes at the bus rate
// (contention can stretch it; callers use it as a retry hint).
func (st *Station) DrainTime(n int) time.Duration { return st.bus.cfg.Rate.Serialize(n) }

// Send queues f for transmission on the shared medium, consuming the
// caller's frame reference. It reports whether the frame was accepted
// into the station queue.
func (st *Station) Send(f *Frame) bool {
	cap := st.bus.cfg.StationQueueCap
	if cap > 0 && st.queued+f.WireBytes > cap {
		st.bus.stats.QueueDrops++
		f.Release()
		return false
	}
	st.queue = append(st.queue, f)
	st.queued += f.WireBytes
	if !st.active {
		st.active = true
		st.attempts = 0
		st.tryTransmit()
	}
	return true
}

// stationTryTransmit is the scheduling trampoline for tryTransmit; a
// bound method value would allocate per event.
func stationTryTransmit(a, _ any) { a.(*Station).tryTransmit() }

func busResolveWindow(a, _ any) { a.(*Bus).resolveWindow() }

// tryTransmit attempts to start sending the head-of-queue frame.
func (st *Station) tryTransmit() {
	b := st.bus
	now := b.sim.Now()
	if now < b.busyUntil {
		// Carrier sensed: 1-persistent — retry the instant the medium
		// goes idle. Ties among deferring stations then collide, which
		// is exactly the 1-persistent pathology.
		b.sim.AtFunc(b.busyUntil, stationTryTransmit, st, nil)
		return
	}
	if len(b.window) > 0 {
		if now < b.windowStart+b.cfg.SlotTime {
			// Someone started within the last slot: we can't hear them
			// yet, so we start too and collide.
			b.window = append(b.window, st)
			return
		}
		// The contention window has closed but its resolution event has
		// not fired yet (it is scheduled for this same instant). Retry
		// after it runs and busyUntil reflects the outcome.
		b.sim.AfterFunc(0, stationTryTransmit, st, nil)
		return
	}
	// Medium idle: open a new vulnerable window.
	b.window = b.window[:0]
	b.window = append(b.window, st)
	b.windowStart = now
	b.resolveAt = b.sim.AfterFunc(b.cfg.SlotTime, busResolveWindow, b, nil)
}

// resolveWindow fires one slot after a transmission started and decides
// success or collision.
func (b *Bus) resolveWindow() {
	contenders := b.window
	b.window = nil
	if len(contenders) == 0 {
		return
	}
	if len(contenders) == 1 {
		st := contenders[0]
		f := st.queue[0]
		txTime := b.cfg.Rate.Serialize(f.WireBytes)
		done := b.windowStart + txTime
		if done < b.sim.Now() {
			done = b.sim.Now()
		}
		b.busyUntil = done
		b.sim.AtFunc(done, busFrameSent, st, nil)
		return
	}
	// Collision.
	b.stats.Collisions++
	if TraceCollision != nil {
		addrs := make([]Addr, len(contenders))
		for i, st := range contenders {
			addrs[i] = st.addr
		}
		TraceCollision(time.Duration(b.sim.Now()), addrs)
	}
	b.busyUntil = b.sim.Now() + b.cfg.JamTime
	for _, st := range contenders {
		st.backoff()
	}
}

// busFrameSent fires when the winning station's frame has fully
// serialized. The head of the queue is the frame whose transmission just
// completed: it cannot have changed, because the station neither
// transmits another frame nor aborts this one while the medium carries
// it.
func busFrameSent(a, _ any) {
	st := a.(*Station)
	b := st.bus
	f := st.queue[0]
	b.deliver(st, f)
	st.popHead()
	st.queued -= f.WireBytes
	st.attempts = 0
	if len(st.queue) > 0 {
		st.tryTransmit()
	} else {
		st.active = false
	}
}

// backoff applies truncated binary exponential backoff to the station's
// head-of-queue frame.
func (st *Station) backoff() {
	b := st.bus
	st.attempts++
	if st.attempts >= b.cfg.MaxAttempts {
		// Excessive collisions: drop the frame.
		f := st.queue[0]
		st.popHead()
		st.queued -= f.WireBytes
		st.attempts = 0
		b.stats.Aborted++
		if TraceAbort != nil {
			TraceAbort(time.Duration(b.sim.Now()), st.addr, f.WireBytes)
		}
		f.Release()
		if len(st.queue) == 0 {
			st.active = false
			return
		}
	}
	k := st.attempts
	if k > 10 {
		k = 10
	}
	r := st.rng.Intn(1 << k)
	wait := b.busyUntil - b.sim.Now() + time.Duration(r)*b.cfg.SlotTime
	if TraceBackoff != nil {
		TraceBackoff(time.Duration(b.sim.Now()), st.addr, st.attempts, r, wait)
	}
	b.sim.AfterFunc(wait, stationTryTransmit, st, nil)
}

// deliver hands f to every station that accepts it, consuming the
// queue's frame reference. Each accepting station gets its own
// reference; the sender does not receive its own frame.
func (b *Bus) deliver(from *Station, f *Frame) {
	b.stats.Delivered++
	for _, st := range b.stations {
		if st == from {
			continue
		}
		if !st.accepts(f) {
			continue
		}
		f.Retain()
		st.recv.RecvFrame(f)
	}
	f.Release()
}

func (st *Station) accepts(f *Frame) bool {
	if f.Dst == st.addr {
		return true
	}
	if f.Dst == Broadcast || f.Multicast {
		if st.groups == nil {
			return true
		}
		return st.groups(f)
	}
	return false
}

// TraceAbort, when non-nil, is called on every excessive-collision drop
// (diagnostics).
var TraceAbort func(at time.Duration, station Addr, wireBytes int)

// TraceCollision, when non-nil, is called on every collision event with
// the contending station addresses (diagnostics).
var TraceCollision func(at time.Duration, stations []Addr)

// TraceBackoff, when non-nil, observes every backoff decision
// (diagnostics).
var TraceBackoff func(at time.Duration, station Addr, attempts, r int, wait time.Duration)
