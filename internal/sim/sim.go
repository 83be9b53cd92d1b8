// Package sim implements a minimal discrete-event simulation engine.
//
// A Simulator owns a virtual clock and a priority queue of events. Events
// scheduled for the same instant fire in scheduling order, which makes runs
// fully deterministic. All simulated network and host behavior in this
// repository is expressed as events on one Simulator; nothing in the
// simulated world reads the wall clock.
//
// The engine is built for a near-zero-allocation steady state: event
// records live in a slab ([]slot) recycled through a free list, and the
// AtFunc/AfterFunc/Post variants let hot paths schedule a package-level
// function plus two argument words instead of allocating a closure per
// event. Scheduling and firing allocate nothing once the slab and the
// queue have grown to the simulation's high-water mark.
//
// The priority queue is a monotone radix heap over the (at, seq) order.
// Event times only move forward, so the queue keeps last, the latest
// time it has extracted, and files each later event in bucket k, where
// k is the highest bit in which its time differs from last. Bucket k is
// a linked list threaded through the slab (slot.next), so a bucket costs
// no memory of its own. The entries at or before last sit in b0, a small
// (at, seq) binary heap: it absorbs ties at one instant and pushes that
// land between the clock and last, which NextAt and RunUntil make
// possible. When b0 runs dry the lowest non-empty bucket is
// redistributed around its earliest time, which becomes the new last:
// every entry moves to a strictly lower bucket or into b0, so each entry
// moves at most 63 times however long it waits. b0's minimum is always
// the global (at, seq) minimum, so the pop order — and every result built
// on it — is the one a plain binary heap gives.
//
// Cancellation is O(1): an EventID packs the event's slab index with a
// per-slot generation counter, so Cancel is one bounds check and one
// generation compare — no map lookup, no queue surgery. The cancelled
// entry stays queued and is discarded lazily when it surfaces (in b0, or
// when its bucket is redistributed); when more than half of the queue is
// dead weight it is compacted in one pass, which bounds both queue and
// slab growth under heavy cancel/reschedule churn (retransmit timers).
//
// Post schedules like AtFunc but returns no EventID, so its event can
// never be cancelled, and that lets consecutive Posts share one queue
// entry. A Post at the same instant as the Post just before it joins
// that Post's run, provided nothing else was scheduled in between and
// the run's head has not fired yet. Every member keeps its own slot,
// chained from the head through slot.run, and only the head is filed in
// the queue; Step fires one member per call and puts the next member in
// b0's root. A switch flooding one frame to every idle port posts such
// a run, and it costs the queue one entry instead of one per port. The
// pop order cannot change: a run's members share one time and hold
// consecutive scheduling numbers, so no other event sorts between them,
// and whatever they schedule sorts after the last of them.
//
// A simulator whose run is over can be handed back with Release: it
// keeps its slab, free list and b0 at their grown capacity, and New
// hands it to the next run, which then schedules without growing them.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"rmcast/internal/pool"
)

// Time is a virtual timestamp, measured as a duration since the start of
// the simulation. Using time.Duration keeps arithmetic and formatting
// familiar while making it impossible to confuse virtual and wall time.
type Time = time.Duration

// EventID identifies a scheduled event so it can be cancelled. It packs
// the event's slab slot (low 32 bits, offset by one) and the slot's
// generation at scheduling time (high 32 bits); the generation is bumped
// every time a slot is recycled, so a stale EventID can never cancel an
// unrelated later event. The zero EventID is never issued and is safe to
// use as "no event".
type EventID uint64

// Slot lifecycle states.
const (
	slotFree uint8 = iota
	slotPending
	slotCancelled
)

// noSlot ends a bucket list. schedule never issues it as a slot index:
// the slab stops one short of math.MaxUint32 entries.
const noSlot = math.MaxUint32

// slot is one slab entry: the payload of a scheduled event. Slots are
// recycled through the simulator's free list; gen counts recycles. A
// slot filed in a radix bucket links to the next one through next; a
// member of a Post run links to the run's next member through run
// (noSlot ends the run, and stands alone for every other event).
type slot struct {
	at    Time
	seq   uint64
	gen   uint32
	next  uint32
	state uint8
	run   uint32
	fn0   func()         // nullary callback (At/After)
	fn    func(a, b any) // monomorphic callback (AtFunc/AfterFunc/Post)
	a, b  any
}

// entry is one b0 element. Keeping (at, seq) inline means sifting never
// touches the slab.
type entry struct {
	at  Time
	seq uint64
	idx uint32
}

func entryLess(a, b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// bucket is one radix bucket: a FIFO list of slot indices linked through
// slot.next, and the earliest time ever appended to it since it was last
// empty. Entries are appended in scheduling order and redistribution
// walks a list front to back, so every list stays in ascending seq order.
type bucket struct {
	head, tail uint32
	min        Time
}

// Simulator is a discrete-event scheduler. The zero value is not usable;
// call New. A Simulator is not safe for concurrent use: the simulated
// world is single-threaded by design.
type Simulator struct {
	now  Time
	last Time    // latest time extracted into b0; every bucket entry is later
	b0   []entry // min-heap on (at, seq) of the entries at or before last
	// buckets[k] holds the entries whose time first differs from last
	// in bit k; bit k of full is set while buckets[k] is non-empty.
	buckets [63]bucket
	full    uint64
	slots   []slot   // slab of event payloads
	free    []uint32 // recycled slot indices
	nextSeq uint64
	live    int // pending (not cancelled) events
	dead    int // cancelled entries still queued
	fired   uint64
	// The latest Post's run: its head and tail slots, and the
	// scheduling number of its tail. A Post may join it only while
	// nextSeq still equals runSeq, that is, nothing was scheduled since.
	runHead, runTail uint32
	runSeq           uint64
	// released is set while the simulator sits on the spare list.
	released bool
}

// spare is the process's free list of released simulators. New takes
// from it and Release puts on it, so a run takes the slab an earlier run
// grew instead of growing one again. It holds at most as many
// simulators as were released without being taken again.
var spare pool.List[*Simulator]

// New returns an empty simulator with the clock at zero: the one most
// recently released, if any, else a new one.
func New() *Simulator {
	s, ok := spare.Get()
	if !ok {
		return &Simulator{}
	}
	s.released = false
	return s
}

// Release empties s and hands it back for New to reuse. Every pending
// and cancelled event is dropped unfired, with its callback and
// arguments, and the clock, the scheduling sequence and the counters
// start again from zero, so the simulator fires exactly the events a new
// one would, in the same order; the slab, its free list and b0 keep
// their capacity. Every slot's generation moves past each EventID issued
// so far, so no such ID cancels anything scheduled after the release.
// The caller must not use s, or anything that schedules on it, again;
// releasing it twice panics.
func (s *Simulator) Release() {
	if s.released {
		panic("sim: simulator released twice")
	}
	// A new simulator issues slots 0, 1, 2, … in turn; so does one
	// whose free list pops them in that order.
	free := s.free[:0]
	for i := len(s.slots) - 1; i >= 0; i-- {
		if sl := &s.slots[i]; sl.state != slotFree {
			sl.state = slotFree
			sl.gen++
			sl.fn0, sl.fn, sl.a, sl.b = nil, nil, nil, nil
		}
		free = append(free, uint32(i))
	}
	*s = Simulator{slots: s.slots, free: free, b0: s.b0[:0], released: true}
	spare.Put(s)
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Pending returns the number of events waiting to fire (cancelled events
// excluded, even while their queue entries await lazy removal).
func (s *Simulator) Pending() int { return s.live }

// Fired returns the total number of events executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// SlabSize returns the number of event slots ever allocated — the
// high-water mark of simultaneously tracked (pending + lazily dead)
// events, over every run a released simulator served. Exposed so
// tests can assert that cancel/reschedule churn does not grow the slab
// without bound.
func (s *Simulator) SlabSize() int { return len(s.slots) }

// schedule is the common entry point behind At/AtFunc. Exactly one of
// fn0 and fn is non-nil.
func (s *Simulator) schedule(at Time, fn0 func(), fn func(a, b any), a, b any) EventID {
	idx := s.take(at, fn0, fn, a, b)
	s.push(idx, at, s.nextSeq)
	return EventID(uint64(s.slots[idx].gen)<<32 | uint64(idx) + 1)
}

// take fills a slot, from the free list or a grown slab, with the next
// scheduling number and the event's payload, and counts it live. The
// caller files it in the queue or in a run.
func (s *Simulator) take(at Time, fn0 func(), fn func(a, b any), a, b any) uint32 {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, s.now))
	}
	s.nextSeq++
	var idx uint32
	if n := len(s.free) - 1; n >= 0 {
		idx = s.free[n]
		s.free = s.free[:n]
	} else {
		if len(s.slots) >= noSlot {
			panic("sim: event slab exhausted")
		}
		s.slots = append(s.slots, slot{})
		idx = uint32(len(s.slots) - 1)
	}
	sl := &s.slots[idx]
	sl.at = at
	sl.seq = s.nextSeq
	sl.state = slotPending
	sl.run = noSlot
	sl.fn0, sl.fn, sl.a, sl.b = fn0, fn, a, b
	s.live++
	return idx
}

// At schedules fn to run at the absolute virtual time at. Scheduling in
// the past panics: it always indicates a bug in the caller, and silently
// clamping would hide causality violations.
func (s *Simulator) At(at Time, fn func()) EventID {
	if fn == nil {
		panic("sim: scheduling nil event func")
	}
	return s.schedule(at, fn, nil, nil, nil)
}

// After schedules fn to run d from now. Negative d panics via At.
func (s *Simulator) After(d time.Duration, fn func()) EventID {
	return s.At(s.now+d, fn)
}

// AtFunc schedules fn(a, b) at the absolute virtual time at. It is the
// allocation-free scheduling path: fn is typically a package-level
// function and a/b carry its receiver and payload (pointer-shaped values
// box into the interface words without allocating), so per-frame network
// events schedule without constructing a closure.
func (s *Simulator) AtFunc(at Time, fn func(a, b any), a, b any) EventID {
	if fn == nil {
		panic("sim: scheduling nil event func")
	}
	return s.schedule(at, nil, fn, a, b)
}

// AfterFunc schedules fn(a, b) to run d from now; see AtFunc.
func (s *Simulator) AfterFunc(d time.Duration, fn func(a, b any), a, b any) EventID {
	return s.AtFunc(s.now+d, fn, a, b)
}

// Post schedules fn(a, b) at at like AtFunc, but returns no EventID:
// the event cannot be cancelled. In exchange a Post at the same instant
// as the Post just before it, with nothing else scheduled in between,
// joins that Post's queue entry as long as the entry's first event has
// not fired, so a fan-out of n events at one instant costs the queue
// one entry, not n. The events fire exactly as n AtFuncs would.
func (s *Simulator) Post(at Time, fn func(a, b any), a, b any) {
	if fn == nil {
		panic("sim: scheduling nil event func")
	}
	// With nothing scheduled since the run's tail, no slot of the run
	// has been reused: a head that has fired is still free.
	join := s.runSeq == s.nextSeq && s.nextSeq != 0 &&
		s.slots[s.runTail].at == at && s.slots[s.runHead].state == slotPending
	idx := s.take(at, nil, fn, a, b)
	if join {
		s.slots[s.runTail].run = idx
	} else {
		s.push(idx, at, s.nextSeq)
		s.runHead = idx
	}
	s.runTail, s.runSeq = idx, s.nextSeq
}

// Cancel removes a pending event in O(1): decode the slot index, compare
// the generation, and mark the slot cancelled — the heap entry is
// discarded lazily when it reaches the top (or at the next compaction).
// It reports whether the event was still pending; cancelling an
// already-fired or already-cancelled event is a harmless no-op, which
// lets protocol code cancel timers unconditionally.
func (s *Simulator) Cancel(id EventID) bool {
	low := uint64(id) & 0xffffffff
	if low == 0 {
		return false
	}
	idx := uint32(low - 1)
	if int(idx) >= len(s.slots) {
		return false
	}
	sl := &s.slots[idx]
	if sl.state != slotPending || sl.gen != uint32(id>>32) {
		return false
	}
	sl.state = slotCancelled
	sl.fn0, sl.fn, sl.a, sl.b = nil, nil, nil, nil
	s.live--
	s.dead++
	// Compact once dead entries outnumber live ones: a single O(n) pass
	// amortized against the >n cancels that created the dead weight, so
	// cancel/reschedule churn cannot grow the queue or slab unboundedly.
	if s.dead > 64 && s.dead > s.live {
		s.compact()
	}
	return true
}

// freeSlot recycles a slot whose queue entry has been removed.
func (s *Simulator) freeSlot(idx uint32) {
	sl := &s.slots[idx]
	sl.state = slotFree
	sl.gen++
	sl.fn0, sl.fn, sl.a, sl.b = nil, nil, nil, nil
	s.free = append(s.free, idx)
}

// compact drops every cancelled entry from b0 and the buckets in one
// pass and re-establishes b0's heap property. Bucket lists keep their
// order.
func (s *Simulator) compact() {
	kept := s.b0[:0]
	for _, e := range s.b0 {
		if s.slots[e.idx].state == slotCancelled {
			s.freeSlot(e.idx)
			continue
		}
		kept = append(kept, e)
	}
	s.b0 = kept
	for i := len(kept)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
	for full := s.full; full != 0; full &= full - 1 {
		k := bits.TrailingZeros64(full)
		idx := s.buckets[k].head
		s.full &^= 1 << k
		for idx != noSlot {
			sl := &s.slots[idx]
			next := sl.next
			if sl.state == slotCancelled {
				s.freeSlot(idx)
			} else {
				s.appendTo(k, idx, sl.at)
			}
			idx = next
		}
	}
	s.dead = 0
}

// Step fires the single next event, advancing the clock to it. It reports
// whether an event was fired (false means no live events remain).
func (s *Simulator) Step() bool {
	if !s.prune() {
		return false
	}
	e := s.b0[0]
	sl := &s.slots[e.idx]
	if nx := sl.run; nx != noSlot {
		// The next member of a Post run takes the root: it follows e
		// directly in (at, seq) order, so the heap needs no sifting.
		s.b0[0] = entry{at: e.at, seq: s.slots[nx].seq, idx: nx}
	} else {
		s.popTop()
	}
	fn0, fn, a, b := sl.fn0, sl.fn, sl.a, sl.b
	s.freeSlot(e.idx)
	s.live--
	s.now = e.at
	s.fired++
	if fn != nil {
		fn(a, b)
	} else {
		fn0()
	}
	return true
}

// prune brings the next live event to the top of b0, freeing the
// cancelled entries it meets on the way. It reports false when no live
// event remains.
func (s *Simulator) prune() bool {
	for {
		if len(s.b0) == 0 && !s.refill() {
			return false
		}
		idx := s.b0[0].idx
		if s.slots[idx].state != slotCancelled {
			return true
		}
		s.popTop()
		s.freeSlot(idx)
		s.dead--
	}
}

// nextAt returns the timestamp of the next live event, pruning dead
// entries it encounters on the way.
func (s *Simulator) nextAt() (Time, bool) {
	if !s.prune() {
		return 0, false
	}
	return s.b0[0].at, true
}

// NextAt returns the timestamp of the next live event without firing
// it, if any events remain. Exposed for external drivers that must
// interleave their own work between steps — the live loopback transport
// drains its cross-goroutine inbox after every event so posted work
// runs at the virtual instant that produced it.
func (s *Simulator) NextAt() (Time, bool) { return s.nextAt() }

// Run fires events until the queue is empty and returns the final clock.
func (s *Simulator) Run() Time {
	for s.Step() {
	}
	return s.now
}

// RunUntil fires events with timestamps <= deadline. Events scheduled for
// exactly deadline do fire. It returns true if the queue drained before
// the deadline, false if events remain beyond it (the clock is then left
// at the last fired event, not advanced to the deadline).
func (s *Simulator) RunUntil(deadline Time) bool {
	for {
		at, ok := s.nextAt()
		if !ok {
			return true
		}
		if at > deadline {
			return false
		}
		s.Step()
	}
}

// push files a newly scheduled slot: into b0 when it is not later than
// last, else into the bucket of the highest bit in which at differs
// from last.
func (s *Simulator) push(idx uint32, at Time, seq uint64) {
	if at <= s.last {
		s.heapPush(entry{at: at, seq: seq, idx: idx})
		return
	}
	s.appendTo(bits.Len64(uint64(at^s.last))-1, idx, at)
}

// appendTo links slot idx, due at at, at the tail of bucket k.
func (s *Simulator) appendTo(k int, idx uint32, at Time) {
	s.slots[idx].next = noSlot
	b := &s.buckets[k]
	if s.full&(1<<k) == 0 {
		s.full |= 1 << k
		b.head, b.min = idx, at
	} else {
		s.slots[b.tail].next = idx
		if at < b.min {
			b.min = at
		}
	}
	b.tail = idx
}

// refill runs when b0 is empty. It takes the lowest non-empty bucket,
// advances last to the bucket's earliest time and redistributes the
// bucket around it: cancelled entries are freed, the entries at last go
// to b0, the others to strictly lower buckets (they share every bit
// above k with the new last). Buckets above k keep their contents, since
// last has not changed in any bit above k. refill repeats until b0 holds
// something and reports false if the queue ran dry first. The earliest
// entry may be a cancelled one; last then names a time nothing live is
// due at, which is harmless: it still lower-bounds every bucket entry.
func (s *Simulator) refill() bool {
	for len(s.b0) == 0 {
		if s.full == 0 {
			return false
		}
		k := bits.TrailingZeros64(s.full)
		b := s.buckets[k]
		s.full &^= 1 << k
		last := b.min
		s.last = last
		for idx := b.head; idx != noSlot; {
			sl := &s.slots[idx]
			next := sl.next
			switch {
			case sl.state == slotCancelled:
				s.freeSlot(idx)
				s.dead--
			case sl.at == last:
				s.heapPush(entry{at: sl.at, seq: sl.seq, idx: idx})
			default:
				s.appendTo(bits.Len64(uint64(sl.at^last))-1, idx, sl.at)
			}
			idx = next
		}
	}
	return true
}

// heapPush appends e to b0 and restores the heap property.
func (s *Simulator) heapPush(e entry) {
	s.b0 = append(s.b0, e)
	i := len(s.b0) - 1
	q := s.b0
	for i > 0 {
		p := (i - 1) / 2
		if !entryLess(e, q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
}

// popTop removes b0's minimum.
func (s *Simulator) popTop() {
	q := s.b0
	n := len(q) - 1
	q[0] = q[n]
	s.b0 = q[:n]
	if n > 0 {
		s.siftDown(0)
	}
}

// siftDown restores b0's heap property below index i.
func (s *Simulator) siftDown(i int) {
	q := s.b0
	n := len(q)
	e := q[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && entryLess(q[r], q[c]) {
			c = r
		}
		if !entryLess(q[c], e) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = e
}

// MaxTime is the largest representable virtual time, usable as an
// effectively infinite deadline.
const MaxTime = Time(math.MaxInt64)
