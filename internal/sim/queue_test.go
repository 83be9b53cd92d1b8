package sim

import (
	"math/bits"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// Queue-order tests: the radix queue must pop in exactly the (at, seq)
// order a sorted reference gives, whatever mix of ties, pushes between
// the clock and the queue's last extracted time, far-future timers,
// cancellations and compactions led there.

// Queue operations, one per opcode byte; some read operand bytes.
const (
	opTie      = iota // At(now + operand%4): ties at a few instants
	opNear            // At(now + 16-bit operand)
	opFar             // At(now + 2^(operand%62) + operand), saturating at MaxTime
	opCancel          // Cancel the operand-th event ever scheduled (may be stale)
	opStep            // Step
	opNextAt          // NextAt, which may move the queue's last time past now
	opRunUntil        // RunUntil(now + 16-bit operand)
	opSweep           // Cancel every pending event with an even scheduling number
	opPost            // Post 1 + operand%8 events at now + operand%4: a run at one instant
	numOps
)

// refEvent is one event of the reference model.
type refEvent struct {
	at  Time
	seq int
}

// queueModel runs one decoded operation sequence against a Simulator
// and a plain reference list, failing t at the first divergence.
type queueModel struct {
	t       testing.TB
	s       *Simulator
	ids     []EventID   // by scheduling number; 0 for a Post
	pending []refEvent  // reference: live events
	fired   []int       // scheduling numbers in the order they fired
	byNum   map[int]int // scheduling number → index in pending
}

func newQueueModel(t testing.TB) *queueModel {
	return &queueModel{t: t, s: New(), byNum: map[int]int{}}
}

func (m *queueModel) at(at Time) {
	num := len(m.ids)
	m.ids = append(m.ids, m.s.At(at, func() { m.fired = append(m.fired, num) }))
	m.byNum[num] = len(m.pending)
	m.pending = append(m.pending, refEvent{at: at, seq: num})
}

// post schedules through Post: the event joins the previous Post's run
// whenever the queue allows, and no EventID can cancel it.
func (m *queueModel) post(at Time) {
	num := len(m.ids)
	m.ids = append(m.ids, 0)
	m.s.Post(at, modelFire, m, num)
	m.byNum[num] = len(m.pending)
	m.pending = append(m.pending, refEvent{at: at, seq: num})
}

func modelFire(a, b any) {
	m := a.(*queueModel)
	m.fired = append(m.fired, b.(int))
}

func (m *queueModel) cancel(num int) {
	i, ok := m.byNum[num]
	ok = ok && m.ids[num] != 0
	if got := m.s.Cancel(m.ids[num]); got != ok {
		m.t.Fatalf("Cancel(event %d) = %v, want %v", num, got, ok)
	}
	if !ok {
		return
	}
	m.remove(i)
}

func (m *queueModel) remove(i int) {
	delete(m.byNum, m.pending[i].seq)
	last := len(m.pending) - 1
	if i != last {
		m.pending[i] = m.pending[last]
		m.byNum[m.pending[i].seq] = i
	}
	m.pending = m.pending[:last]
}

// earliest returns the index of the reference's next event.
func (m *queueModel) earliest() int {
	best := -1
	for i, e := range m.pending {
		if best < 0 || e.at < m.pending[best].at || e.at == m.pending[best].at && e.seq < m.pending[best].seq {
			best = i
		}
	}
	return best
}

func (m *queueModel) step() {
	i := m.earliest()
	n := len(m.fired)
	if got := m.s.Step(); got != (i >= 0) {
		m.t.Fatalf("Step() = %v with %d events pending", got, len(m.pending))
	}
	if i < 0 {
		return
	}
	want := m.pending[i]
	if len(m.fired) != n+1 || m.fired[n] != want.seq {
		m.t.Fatalf("Step fired %v, want event %d at %v", m.fired[n:], want.seq, want.at)
	}
	if m.s.Now() != want.at {
		m.t.Fatalf("clock %v after firing event %d, want %v", m.s.Now(), want.seq, want.at)
	}
	m.remove(i)
}

func (m *queueModel) nextAt() {
	at, ok := m.s.NextAt()
	i := m.earliest()
	if ok != (i >= 0) || ok && at != m.pending[i].at {
		m.t.Fatalf("NextAt() = %v, %v; reference has %d pending", at, ok, len(m.pending))
	}
}

func (m *queueModel) runUntil(deadline Time) {
	for {
		i := m.earliest()
		if i < 0 || m.pending[i].at > deadline {
			break
		}
		m.step()
	}
	// Nothing is due any more: RunUntil must fire nothing, and must
	// report whether the queue is empty.
	n := len(m.fired)
	if got := m.s.RunUntil(deadline); got != (len(m.pending) == 0) || len(m.fired) != n {
		m.t.Fatalf("RunUntil(%v) = %v and fired %d, reference has %d pending", deadline, got, len(m.fired)-n, len(m.pending))
	}
}

// finish compares the pending counts, then drains both sides.
func (m *queueModel) finish() {
	if m.s.Pending() != len(m.pending) {
		m.t.Fatalf("Pending() = %d, reference %d", m.s.Pending(), len(m.pending))
	}
	want := append([]refEvent(nil), m.pending...)
	sort.Slice(want, func(i, j int) bool {
		if want[i].at != want[j].at {
			return want[i].at < want[j].at
		}
		return want[i].seq < want[j].seq
	})
	n := len(m.fired)
	m.s.Run()
	if len(m.fired)-n != len(want) {
		m.t.Fatalf("draining fired %d events, want %d", len(m.fired)-n, len(want))
	}
	for i, e := range want {
		if m.fired[n+i] != e.seq {
			m.t.Fatalf("drain fired event %d in place %d, want %d", m.fired[n+i], i, e.seq)
		}
	}
}

// runQueueOps decodes data into queue operations and checks every
// result against the reference.
func runQueueOps(t testing.TB, data []byte) {
	m := newQueueModel(t)
	m.run(data)
	m.finish()
}

// run decodes data into queue operations on m, checking every result
// against the reference and the queue's invariants after each one.
func (m *queueModel) run(data []byte) {
	t := m.t
	operand := func(i *int) int {
		if *i >= len(data) {
			return 0
		}
		v := int(data[*i])
		*i++
		return v
	}
	for i := 0; i < len(data); {
		op := int(data[i]) % numOps
		i++
		now := m.s.Now()
		switch op {
		case opTie:
			m.at(now + Time(operand(&i)%4))
		case opNear:
			m.at(now + Time(operand(&i)<<8|operand(&i)))
		case opFar:
			v := operand(&i)
			d := Time(1)<<(v%62) + Time(v)
			if now > MaxTime-d {
				m.at(MaxTime)
			} else {
				m.at(now + d)
			}
		case opCancel:
			if len(m.ids) > 0 {
				m.cancel(operand(&i) % len(m.ids))
			}
		case opStep:
			m.step()
		case opNextAt:
			m.nextAt()
		case opRunUntil:
			m.runUntil(now + Time(operand(&i)<<8|operand(&i)))
		case opSweep:
			for num := 0; num < len(m.ids); num += 2 {
				if _, ok := m.byNum[num]; ok {
					m.cancel(num)
				}
			}
		case opPost:
			v := operand(&i)
			for k := 0; k <= v%8; k++ {
				m.post(now + Time(v/8%4))
			}
		}
		checkQueue(t, m.s)
	}
}

// queueOps encodes operations for the seed corpus: each element is an
// opcode followed by its operand bytes.
func queueOps(ops ...[]byte) []byte {
	var b []byte
	for _, op := range ops {
		b = append(b, op...)
	}
	return b
}

func repeatOp(n int, op ...byte) []byte {
	var b []byte
	for i := 0; i < n; i++ {
		b = append(b, op...)
	}
	return b
}

// queueSeeds are the shapes the corpus starts from.
var queueSeeds = map[string][]byte{
	// Many events at one instant and its neighbours: b0's seq tie-break.
	"ties": queueOps(repeatOp(40, opTie, 0), repeatOp(20, opTie, 1), repeatOp(45, opStep)),
	// NextAt moves last to the far event; the near pushes then land
	// between the clock and last and must still fire first.
	"below-last": queueOps([]byte{opNear, 0x10, 0x00, opNextAt},
		repeatOp(6, opTie, 2), []byte{opNear, 0x01, 0x00, opNextAt, opTie, 3},
		repeatOp(10, opStep)),
	// RunUntil stops short of a later event after pulling it into b0.
	"rununtil": queueOps([]byte{opNear, 0x20, 0x00, opNear, 0x00, 0x40, opRunUntil, 0x10, 0x00},
		repeatOp(5, opTie, 1), []byte{opRunUntil, 0xff, 0xff}),
	// Far-future timers beside near ones, up to MaxTime.
	"far": queueOps([]byte{opFar, 61, opFar, 40, opFar, 0, opFar, 61, opNear, 0xff, 0xff},
		repeatOp(3, opStep), []byte{opFar, 20, opNextAt, opTie, 0}, repeatOp(4, opStep)),
	// Enough cancellations to compact (more than 64 dead, outnumbering
	// the live), spread over many buckets, then stale cancels of fired
	// and cancelled events.
	"compact": func() []byte {
		b := queueOps(repeatOp(60, opNear, 0x01, 0x11), repeatOp(60, opFar, 33), []byte{opNextAt})
		for num := 0; num < 120; num += 3 {
			b = append(b, opNear, byte(num), byte(num*7), opCancel, byte(num), opCancel, byte(num+1))
		}
		return queueOps(b, repeatOp(10, opStep), []byte{opCancel, 0, opSweep, opCancel, 1})
	}(),
	// Post runs at one instant: runs that grow across separate opPosts,
	// broken by a tie and by a run at another instant, stepped part way
	// (a run whose head has fired takes no more members), then filed in
	// a bucket behind a NextAt, cancelled around and swept.
	"post-runs": queueOps([]byte{opPost, 7, opPost, 5, opTie, 0, opPost, 3, opPost, 8 + 3, opPost, 2},
		repeatOp(4, opStep), []byte{opPost, 1, opPost, 1, opNear, 0x00, 0x40, opNextAt, opPost, 7},
		repeatOp(3, opStep), []byte{opNear, 0x01, 0x00, opNextAt, opPost, 24 + 6, opPost, 2, opCancel, 3, opSweep},
		repeatOp(6, opStep), []byte{opRunUntil, 0x01, 0x00, opPost, 31, opTie, 0}, repeatOp(12, opStep)),
}

func FuzzQueueOrder(f *testing.F) {
	for _, seed := range queueSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runQueueOps(t, data)
	})
}

// TestQueueOrderSeeds runs the seed shapes plus random sequences, so
// plain `go test` covers the queue without -fuzz.
func TestQueueOrderSeeds(t *testing.T) {
	for name, seed := range queueSeeds {
		t.Run(name, func(t *testing.T) { runQueueOps(t, seed) })
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		data := make([]byte, 50+rng.Intn(400))
		rng.Read(data)
		runQueueOps(t, data)
	}
}

// TestQueueCompactsLists: cancelling most of a standing population filed
// across many buckets compacts the lists in place, and the survivors
// still fire in order.
func TestQueueCompactsLists(t *testing.T) {
	m := newQueueModel(t)
	for i := 0; i < 300; i++ {
		m.at(Time(i*i) * time.Microsecond)
	}
	m.nextAt()
	m.step()
	cancelled := 0
	for num := 1; num < len(m.ids); num++ {
		if num%4 != 0 {
			m.cancel(num)
			cancelled++
		}
	}
	if m.s.dead >= cancelled {
		t.Fatalf("%d dead entries after %d cancels: the queue never compacted", m.s.dead, cancelled)
	}
	checkQueue(t, m.s)
	m.finish()
	if m.s.SlabSize() > 300 {
		t.Fatalf("slab grew to %d slots for 300 events", m.s.SlabSize())
	}
}

// checkQueue asserts the radix queue's invariants: b0 is a heap of
// entries at or before last, every entry of bucket k differs from last
// first in bit k, full marks exactly the non-empty buckets, each list
// ascends in seq, every Post run is a chain of pending members at one
// time with consecutive seqs, and the queue holds every live and dead
// entry once, counting each run's members.
func checkQueue(t testing.TB, s *Simulator) {
	t.Helper()
	queued := 0
	members := func(idx uint32) {
		queued++
		for sl := s.slots[idx]; sl.run != noSlot; {
			m := s.slots[sl.run]
			if m.state != slotPending || m.at != sl.at || m.seq != sl.seq+1 {
				t.Fatalf("run member at %v seq %d (state %d) follows %v seq %d", m.at, m.seq, m.state, sl.at, sl.seq)
			}
			queued++
			sl = m
		}
	}
	for i, e := range s.b0 {
		if e.at > s.last {
			t.Fatalf("b0 holds %v, after last %v", e.at, s.last)
		}
		if i > 0 && entryLess(e, s.b0[(i-1)/2]) {
			t.Fatalf("b0 is not a heap at %d", i)
		}
		if sl := s.slots[e.idx]; sl.at != e.at || sl.seq != e.seq || sl.state == slotFree {
			t.Fatalf("b0 entry %d disagrees with its slot", i)
		}
		members(e.idx)
	}
	for k := range s.buckets {
		if s.full&(1<<k) == 0 {
			continue
		}
		var prev uint64
		for idx := s.buckets[k].head; idx != noSlot; idx = s.slots[idx].next {
			sl := s.slots[idx]
			if sl.state == slotFree || sl.at <= s.last || bits.Len64(uint64(sl.at^s.last))-1 != k {
				t.Fatalf("bucket %d holds an event at %v (state %d) with last %v", k, sl.at, sl.state, s.last)
			}
			if sl.seq <= prev {
				t.Fatalf("bucket %d is out of seq order", k)
			}
			prev = sl.seq
			members(idx)
			if idx == s.buckets[k].tail && sl.next != noSlot {
				t.Fatalf("bucket %d continues past its tail", k)
			}
		}
	}
	if s.full>>len(s.buckets) != 0 {
		t.Fatalf("full marks buckets beyond %d: %b", len(s.buckets), s.full)
	}
	if queued != s.live+s.dead {
		t.Fatalf("queue holds %d entries, want %d live + %d dead", queued, s.live, s.dead)
	}
}

// TestQueueStandingPopulationZeroAllocs: schedule+fire with a standing
// population spread over many buckets, so every Step redistributes,
// allocates nothing once the slab and b0 have grown.
func TestQueueStandingPopulationZeroAllocs(t *testing.T) {
	s := New()
	rng := rand.New(rand.NewSource(1))
	delay := func() Time { return Time(rng.Int63n(int64(time.Second))) }
	for i := 0; i < 1024; i++ {
		s.AfterFunc(delay(), nopEvent, nil, nil)
	}
	for i := 0; i < 10000; i++ {
		s.Step()
		s.AfterFunc(delay(), nopEvent, nil, nil)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.Step()
		s.AfterFunc(delay(), nopEvent, nil, nil)
	})
	if allocs != 0 {
		t.Fatalf("Step+AfterFunc over 1024 standing events allocated %.1f objects per run, want 0", allocs)
	}
	if s.Pending() != 1024 {
		t.Fatalf("Pending() = %d, want 1024", s.Pending())
	}
}

// TestReleasedSimulatorFiresLikeNew: a simulator released in the middle
// of an unrelated run — events pending, some cancelled, buckets and b0
// populated — and taken again by New fires a seeded operation sequence
// exactly as a new simulator does, event for event, and no EventID the
// unrelated run was issued cancels anything of the new run's.
func TestReleasedSimulatorFiresLikeNew(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	ops := func() []byte {
		data := make([]byte, 50+rng.Intn(400))
		rng.Read(data)
		return data
	}
	for i := 0; i < 100; i++ {
		before, data := ops(), ops()
		fresh := &queueModel{t: t, s: &Simulator{}, byNum: map[int]int{}}
		fresh.run(data)
		fresh.finish()

		old := newQueueModel(t)
		old.run(before)
		for k := 0; k < 8; k++ {
			old.at(old.s.Now() + Time(k)) // something is pending at the release
		}
		stale := old.ids
		s := old.s
		s.Release()
		reused := newQueueModel(t)
		if reused.s != s {
			t.Fatal("New did not hand back the simulator just released")
		}
		if s.Now() != 0 || s.Pending() != 0 || s.Fired() != 0 {
			t.Fatalf("released simulator starts at %v with %d pending, %d fired", s.Now(), s.Pending(), s.Fired())
		}
		checkQueue(t, s)
		reused.run(data)
		for num, id := range stale {
			if s.Cancel(id) {
				t.Fatalf("sequence %d: event %d of the released run cancelled an event of the next", i, num)
			}
		}
		reused.finish()
		if len(reused.fired) != len(fresh.fired) {
			t.Fatalf("sequence %d: reused simulator fired %d events, a new one %d", i, len(reused.fired), len(fresh.fired))
		}
		for k := range fresh.fired {
			if reused.fired[k] != fresh.fired[k] {
				t.Fatalf("sequence %d: event %d fired %d on the reused simulator, %d on a new one",
					i, k, reused.fired[k], fresh.fired[k])
			}
		}
		if fresh.s.Now() != s.Now() || fresh.s.Fired() != s.Fired() {
			t.Fatalf("sequence %d: reused simulator ends at %v after %d events, a new one at %v after %d",
				i, s.Now(), s.Fired(), fresh.s.Now(), fresh.s.Fired())
		}
	}
}

// TestReleaseTwicePanics: a released simulator has one owner, the spare
// list; a second Release would hand it to two runs.
func TestReleaseTwicePanics(t *testing.T) {
	s := New()
	s.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
		if New() != s {
			t.Fatal("the released simulator left the spare list")
		}
	}()
	s.Release()
}
