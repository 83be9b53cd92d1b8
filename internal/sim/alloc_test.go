package sim

import (
	"testing"
	"time"
)

// Allocation and churn guarantees of the slab scheduler. These tests are
// the wire-level proof behind the zero-allocation hot path: if any of
// them regress, per-event allocation has crept back into the engine.

func nopEvent(a, b any) {}

// TestAfterStepZeroAllocs asserts the core steady-state property:
// scheduling and firing a pooled event allocates nothing once the slab
// and heap have reached their high-water mark.
func TestAfterStepZeroAllocs(t *testing.T) {
	s := New()
	// Warm-up: grow the slab, heap and freelist past anything the
	// measured loop needs.
	for i := 0; i < 128; i++ {
		s.AfterFunc(time.Duration(i)*time.Microsecond, nopEvent, s, nil)
	}
	for s.Step() {
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.AfterFunc(time.Microsecond, nopEvent, s, nil)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("AfterFunc+Step allocated %.1f objects per run, want 0", allocs)
	}
}

// TestCancelZeroAllocs: cancelling is O(1) and allocation-free — one
// bounds check and one generation compare, no map, no heap surgery.
func TestCancelZeroAllocs(t *testing.T) {
	s := New()
	for i := 0; i < 128; i++ {
		s.AfterFunc(time.Microsecond, nopEvent, nil, nil)
	}
	for s.Step() {
	}
	allocs := testing.AllocsPerRun(1000, func() {
		id := s.AfterFunc(time.Microsecond, nopEvent, nil, nil)
		if !s.Cancel(id) {
			t.Fatal("cancel of pending event failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("AfterFunc+Cancel allocated %.1f objects per run, want 0", allocs)
	}
}

// TestCancelStaleIDAfterSlotReuse proves the generation encoding: an
// EventID whose slot has been recycled must not cancel the slot's new
// occupant.
func TestCancelStaleIDAfterSlotReuse(t *testing.T) {
	s := New()
	id1 := s.After(time.Millisecond, func() {})
	if !s.Cancel(id1) {
		t.Fatal("first cancel failed")
	}
	// Drain the lazily-dead heap entry so the slot returns to the
	// freelist, then schedule again: the slot is reused at a new
	// generation.
	if s.Step() {
		t.Fatal("cancelled event fired")
	}
	fired := false
	id2 := s.After(time.Millisecond, func() { fired = true })
	if s.Cancel(id1) {
		t.Fatal("stale EventID cancelled the slot's new occupant")
	}
	s.Run()
	if !fired {
		t.Fatal("event lost to a stale cancel")
	}
	if s.Cancel(id2) {
		t.Fatal("cancel of already-fired event succeeded")
	}
}

// TestCancelRescheduleChurnBoundsSlab models retransmit-timer churn:
// a standing population of timers each cancelled and rescheduled many
// times. Lazy deletion parks cancelled entries in the heap, but the
// compaction policy (compact when dead outnumber live) must bound both
// the heap and the slab near the live high-water mark — not at the
// total number of schedule calls.
func TestCancelRescheduleChurnBoundsSlab(t *testing.T) {
	s := New()
	const live = 128
	const rounds = 1000
	ids := make([]EventID, live)
	for i := range ids {
		ids[i] = s.AfterFunc(time.Second, nopEvent, nil, nil)
	}
	for r := 0; r < rounds; r++ {
		for i := range ids {
			if !s.Cancel(ids[i]) {
				t.Fatalf("round %d: cancel of pending timer failed", r)
			}
			ids[i] = s.AfterFunc(time.Second, nopEvent, nil, nil)
		}
	}
	if s.Pending() != live {
		t.Fatalf("Pending() = %d, want %d", s.Pending(), live)
	}
	// 128k schedule calls happened; the slab must stay near the live
	// population (live + dead < 2*live+compaction slack), not grow with
	// the churn volume.
	if sz := s.SlabSize(); sz > 8*live {
		t.Fatalf("slab grew to %d slots under churn (live population %d)", sz, live)
	}
	// The survivors must all still fire exactly once.
	if s.Run(); s.Fired() != live {
		t.Fatalf("fired %d events, want %d", s.Fired(), live)
	}
}

// BenchmarkSimSchedule measures the schedule+fire round trip of the
// monomorphic hot path (the per-frame scheduling pattern).
func BenchmarkSimSchedule(b *testing.B) {
	s := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.AfterFunc(time.Microsecond, nopEvent, s, nil)
		s.Step()
	}
}

// TestPostRunZeroAllocs: runs of 30 Posts at one instant, each fired
// member by member, allocate nothing once the slab has grown.
func TestPostRunZeroAllocs(t *testing.T) {
	s := New()
	fanOut := func() {
		at := s.Now() + time.Microsecond
		for i := 0; i < 30; i++ {
			s.Post(at, nopEvent, s, nil)
		}
		for s.Step() {
		}
	}
	fanOut()
	allocs := testing.AllocsPerRun(1000, fanOut)
	if allocs != 0 {
		t.Fatalf("a 30-member Post run allocated %.1f objects per run, want 0", allocs)
	}
}

// BenchmarkSimPostRun measures a switch flood's scheduling pattern: 30
// Posts at one instant, then 30 Steps firing them. One op is the whole
// fan-out.
func BenchmarkSimPostRun(b *testing.B) {
	s := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at := s.Now() + time.Microsecond
		for k := 0; k < 30; k++ {
			s.Post(at, nopEvent, s, nil)
		}
		for k := 0; k < 30; k++ {
			s.Step()
		}
	}
}

// BenchmarkSimScheduleDepth1k is BenchmarkSimSchedule with a standing
// population of 1024 events, exercising realistic heap depth.
func BenchmarkSimScheduleDepth1k(b *testing.B) {
	s := New()
	for i := 0; i < 1024; i++ {
		s.AtFunc(MaxTime-Time(i), nopEvent, nil, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AfterFunc(time.Microsecond, nopEvent, s, nil)
		s.Step()
	}
}

// BenchmarkSimCancel measures the O(1) cancel path.
func BenchmarkSimCancel(b *testing.B) {
	s := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Cancel(s.AfterFunc(time.Second, nopEvent, nil, nil))
	}
}
