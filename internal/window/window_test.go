package window

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSenderBasicFlow(t *testing.T) {
	w := NewSender(3, 10)
	var sent []uint32
	for w.CanSend() {
		sent = append(sent, w.Sent())
	}
	if len(sent) != 3 {
		t.Fatalf("sent %d packets with window 3, want 3", len(sent))
	}
	if w.Outstanding() != 3 {
		t.Errorf("Outstanding = %d, want 3", w.Outstanding())
	}
	if !w.Ack(2) {
		t.Fatal("Ack(2) did not advance")
	}
	if w.Base != 2 {
		t.Errorf("Base = %d, want 2", w.Base)
	}
	n := 0
	for w.CanSend() {
		w.Sent()
		n++
	}
	if n != 2 {
		t.Errorf("freed %d slots after Ack(2), want 2", n)
	}
}

func TestSenderCompletes(t *testing.T) {
	w := NewSender(5, 3)
	for w.CanSend() {
		w.Sent()
	}
	if w.Next != 3 {
		t.Errorf("Next = %d, want 3 (count-limited)", w.Next)
	}
	w.Ack(3)
	if !w.Done() {
		t.Error("window not done after full ack")
	}
	if w.CanSend() {
		t.Error("CanSend true after done")
	}
}

func TestSenderAckClampAndRegression(t *testing.T) {
	w := NewSender(5, 4)
	for w.CanSend() {
		w.Sent()
	}
	w.Ack(3)
	if w.Ack(2) {
		t.Error("regressive ack advanced the window")
	}
	if w.Base != 3 {
		t.Errorf("Base = %d after regression, want 3", w.Base)
	}
	// Acks beyond Count clamp rather than panic (receivers echo the
	// count as their final cumulative ack).
	w.Ack(100)
	if w.Base != 4 || !w.Done() {
		t.Errorf("clamped ack: Base = %d, want 4", w.Base)
	}
}

func TestSenderAckBeyondNextPanics(t *testing.T) {
	w := NewSender(5, 10)
	w.Sent()
	defer func() {
		if recover() == nil {
			t.Fatal("ack beyond Next did not panic")
		}
	}()
	w.Ack(5)
}

func TestSenderSentClosedPanics(t *testing.T) {
	w := NewSender(1, 10)
	w.Sent()
	defer func() {
		if recover() == nil {
			t.Fatal("Sent with closed window did not panic")
		}
	}()
	w.Sent()
}

func TestZeroWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSender(0) did not panic")
		}
	}()
	NewSender(0, 5)
}

func TestEmptyMessage(t *testing.T) {
	w := NewSender(4, 0)
	if w.CanSend() {
		t.Error("CanSend true for zero-packet message")
	}
	if !w.Done() {
		t.Error("zero-packet message not immediately done")
	}
}

// Property: under arbitrary interleavings of sends and (valid) acks the
// invariants hold and progress is monotone.
func TestSenderInvariantsQuick(t *testing.T) {
	f := func(ops []bool, size uint8, count uint8) bool {
		w := NewSender(int(size%16)+1, uint32(count))
		lastBase := uint32(0)
		for _, send := range ops {
			if send {
				if w.CanSend() {
					w.Sent()
				}
			} else if w.Next > w.Base {
				// Ack one more packet than currently acked.
				w.Ack(w.Base + 1)
			}
			w.Check()
			if w.Base < lastBase {
				return false
			}
			lastBase = w.Base
			if w.Outstanding() > w.Size {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMinTracker(t *testing.T) {
	m := NewMinTracker([]int{1, 2, 3})
	if m.Min() != 0 {
		t.Fatalf("initial Min = %d, want 0", m.Min())
	}
	m.Update(1, 5)
	m.Update(2, 3)
	if m.Min() != 0 {
		t.Errorf("Min = %d with peer 3 unacked, want 0", m.Min())
	}
	m.Update(3, 4)
	if m.Min() != 3 {
		t.Errorf("Min = %d, want 3", m.Min())
	}
	// Regression ignored.
	m.Update(2, 1)
	if v, _ := m.Value(2); v != 3 {
		t.Errorf("Value(2) = %d after regression, want 3", v)
	}
	// Untracked peer ignored.
	if m.Update(99, 100) {
		t.Error("untracked peer reported as changing the min")
	}
	m.Update(2, 10)
	m.Update(1, 10)
	m.Update(3, 10)
	if m.Min() != 10 {
		t.Errorf("Min = %d, want 10", m.Min())
	}
}

func TestMinTrackerNoPeersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty MinTracker did not panic")
		}
	}()
	NewMinTracker(nil)
}

// Property: Min always equals the true minimum after arbitrary updates.
func TestMinTrackerQuick(t *testing.T) {
	f := func(updates []uint16) bool {
		peers := []int{0, 1, 2, 3, 4}
		m := NewMinTracker(peers)
		truth := make([]uint32, len(peers))
		for _, u := range updates {
			p := int(u) % len(peers)
			v := uint32(u) / 5
			m.Update(p, v)
			if v > truth[p] {
				truth[p] = v
			}
			want := truth[0]
			for _, tv := range truth {
				if tv < want {
					want = tv
				}
			}
			if m.Min() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMinTrackerRemove(t *testing.T) {
	m := NewMinTracker([]int{1, 2, 3})
	m.Update(1, 5)
	m.Update(2, 2)
	m.Update(3, 7)
	if m.Min() != 2 {
		t.Fatalf("Min = %d, want 2", m.Min())
	}
	// Removing the floor peer must raise the min.
	if !m.Remove(2) {
		t.Fatal("Remove(2) = false for a tracked peer")
	}
	if m.Min() != 5 {
		t.Errorf("Min = %d after removing the floor, want 5", m.Min())
	}
	if m.Peers() != 2 {
		t.Errorf("Peers = %d, want 2", m.Peers())
	}
	// Removing a non-floor peer leaves the min alone.
	m.Remove(3)
	if m.Min() != 5 {
		t.Errorf("Min = %d, want 5", m.Min())
	}
	if m.Remove(3) {
		t.Error("Remove of an already-removed peer reported true")
	}
	if _, ok := m.Value(2); ok {
		t.Error("removed peer still tracked")
	}
}

func TestMinTrackerAdd(t *testing.T) {
	m := NewMinTracker([]int{1, 2})
	m.Update(1, 8)
	m.Update(2, 6)
	// A chain-head takeover: peer 2 dies, peer 9 inherits its stream
	// seeded with the dead head's last aggregate.
	m.Remove(2)
	m.Add(9, 6)
	if m.Min() != 6 {
		t.Errorf("Min = %d, want 6", m.Min())
	}
	m.Update(9, 12)
	if m.Min() != 8 {
		t.Errorf("Min = %d, want 8", m.Min())
	}
	if v, ok := m.Value(9); !ok || v != 12 {
		t.Errorf("Value(9) = %d,%v", v, ok)
	}
}

// Table-driven edge cases: the degenerate size-1 window, behavior at
// the top of the 32-bit sequence space, and duplicate/regressive
// cumulative acknowledgments.
func TestSenderEdgeCases(t *testing.T) {
	const maxSeq = uint32(1<<32 - 1)
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"size-1 window is strictly stop-and-wait", func(t *testing.T) {
			w := NewSender(1, 3)
			for want := uint32(0); want < 3; want++ {
				if !w.CanSend() {
					t.Fatalf("window closed before sending %d", want)
				}
				if got := w.Sent(); got != want {
					t.Fatalf("Sent() = %d, want %d", got, want)
				}
				if w.CanSend() {
					t.Fatalf("size-1 window open with %d outstanding", w.Outstanding())
				}
				w.Check()
				if !w.Ack(want + 1) {
					t.Fatalf("ack %d did not advance", want+1)
				}
			}
			if !w.Done() {
				t.Fatal("not done after acking every packet")
			}
		}},
		{"no wraparound wedge at the 2^32-1 boundary", func(t *testing.T) {
			// A message of the maximum 2^32-1 packets, window mid-flight at
			// the very top of the sequence space: Base+Size overflows
			// uint32 here, and the pre-fix 32-bit comparison wedged the
			// window shut with packets still unsent.
			w := &Sender{Size: 8, Count: maxSeq, Base: maxSeq - 4, Next: maxSeq - 4}
			w.Check()
			var sent []uint32
			for w.CanSend() {
				sent = append(sent, w.Sent())
			}
			if len(sent) != 4 {
				t.Fatalf("sent %d packets at the boundary, want the 4 remaining", len(sent))
			}
			if sent[len(sent)-1] != maxSeq-1 {
				t.Fatalf("last seq %d, want %d", sent[len(sent)-1], maxSeq-1)
			}
			w.Check()
			if !w.Ack(maxSeq) || !w.Done() {
				t.Fatal("final cumulative ack did not complete the window")
			}
		}},
		{"outstanding window at the boundary stays within size", func(t *testing.T) {
			w := &Sender{Size: 8, Count: maxSeq, Base: maxSeq - 10, Next: maxSeq - 10}
			for w.CanSend() {
				w.Sent()
			}
			if w.Outstanding() != 8 {
				t.Fatalf("outstanding = %d, want the full window 8", w.Outstanding())
			}
			w.Check()
		}},
		{"duplicate cumulative ack does not re-advance", func(t *testing.T) {
			w := NewSender(4, 10)
			for w.CanSend() {
				w.Sent()
			}
			if !w.Ack(2) {
				t.Fatal("first ack 2 should advance")
			}
			if w.Ack(2) {
				t.Fatal("duplicate ack 2 should be ignored")
			}
			if w.Ack(1) {
				t.Fatal("regressive ack 1 should be ignored")
			}
			if w.Base != 2 {
				t.Fatalf("base = %d after duplicate/regressive acks, want 2", w.Base)
			}
			// The duplicate freed no window space beyond the first ack.
			room := 0
			for w.CanSend() {
				w.Sent()
				room++
			}
			if room != 2 {
				t.Fatalf("freed %d slots, want 2", room)
			}
		}},
		{"ack clamps above count at the boundary", func(t *testing.T) {
			w := &Sender{Size: 4, Count: maxSeq, Base: maxSeq - 1, Next: maxSeq}
			w.Ack(maxSeq) // cum == Count: clamp is a no-op here but must not panic
			if !w.Done() {
				t.Fatal("window not done after acking count")
			}
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) { c.run(t) })
	}
}

// MinTracker duplicate-update behavior: repeated identical updates never
// report a minimum change and never corrupt the cached minimum.
func TestMinTrackerDuplicateUpdates(t *testing.T) {
	m := NewMinTracker([]int{1, 2, 3})
	if m.Update(1, 5); m.Min() != 0 {
		t.Fatalf("min = %d with peers at 0, want 0", m.Min())
	}
	if m.Update(1, 5) {
		t.Fatal("duplicate update reported a change")
	}
	if m.Update(1, 3) {
		t.Fatal("regressive update reported a change")
	}
	m.Update(2, 5)
	m.Update(3, 4)
	if m.Min() != 4 {
		t.Fatalf("min = %d, want 4", m.Min())
	}
	if m.Update(3, 4) {
		t.Fatal("duplicate of the floor holder reported a change")
	}
	if m.Min() != 4 {
		t.Fatalf("min corrupted to %d by duplicate updates", m.Min())
	}
}

// TestMinTrackerMatchesMapReference drives MinTracker and a plain map
// through random Update/Remove/Add/Value/Min/Peers sequences — peers
// re-added after removal, added below the current floor, added beyond
// the initial peer range, the tracker emptied and refilled — and
// requires the same answers from both.
func TestMinTrackerMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 300; round++ {
		npeers := 1 + rng.Intn(40)
		var peers []int
		ref := map[int]uint32{}
		for p := 0; p < npeers; p++ {
			if rng.Intn(4) != 0 || p == npeers-1 && len(peers) == 0 {
				peers = append(peers, p)
				ref[p] = 0
			}
		}
		m := NewMinTracker(peers)
		refMin := func() uint32 {
			min, first := uint32(0), true
			for _, v := range ref {
				if first || v < min {
					min, first = v, false
				}
			}
			return min
		}
		for step := 0; step < 400; step++ {
			p := rng.Intn(npeers + 8) // some peers were never tracked
			switch op := rng.Intn(10); {
			case op < 5:
				v := uint32(rng.Intn(64))
				old, tracked := ref[p]
				want := tracked && v > old
				if want {
					ref[p] = v
				}
				if got := m.Update(p, v); got != want {
					t.Fatalf("round %d step %d: Update(%d, %d) = %v, want %v", round, step, p, v, got, want)
				}
			case op < 7:
				_, want := ref[p]
				delete(ref, p)
				if got := m.Remove(p); got != want {
					t.Fatalf("round %d step %d: Remove(%d) = %v, want %v", round, step, p, got, want)
				}
			case op < 8:
				// Re-add below, at or above the current floor.
				v := uint32(rng.Intn(64))
				if len(ref) > 0 && rng.Intn(2) == 0 {
					if f := refMin(); f > 0 {
						v = f - 1 - uint32(rng.Intn(int(f)))
					}
				}
				ref[p] = v
				m.Add(p, v)
			case op < 9:
				want, wantOK := ref[p]
				if got, ok := m.Value(p); got != want || ok != wantOK {
					t.Fatalf("round %d step %d: Value(%d) = %d,%v, want %d,%v", round, step, p, got, ok, want, wantOK)
				}
			}
			if m.Peers() != len(ref) {
				t.Fatalf("round %d step %d: Peers() = %d, want %d", round, step, m.Peers(), len(ref))
			}
			if len(ref) > 0 && rng.Intn(3) == 0 {
				if got, want := m.Min(), refMin(); got != want {
					t.Fatalf("round %d step %d: Min() = %d, want %d (%d peers)", round, step, got, want, len(ref))
				}
			}
		}
	}
}
