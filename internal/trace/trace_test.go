package trace

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"rmcast/internal/packet"
)

func ev(i int) Event {
	return Event{
		At:   time.Duration(i) * time.Microsecond,
		Node: i % 4, Dir: Dir(i % 3), Peer: i % 5,
		Type: packet.TypeData, Seq: uint32(i),
	}
}

func TestBufferRetainsInOrder(t *testing.T) {
	b := New(10)
	for i := 0; i < 5; i++ {
		b.Add(ev(i))
	}
	got := b.Events()
	if len(got) != 5 {
		t.Fatalf("len = %d, want 5", len(got))
	}
	for i, e := range got {
		if e.Seq != uint32(i) {
			t.Fatalf("out of order: %v", got)
		}
	}
	if b.Total() != 5 {
		t.Errorf("Total = %d", b.Total())
	}
}

func TestBufferWraps(t *testing.T) {
	b := New(4)
	for i := 0; i < 10; i++ {
		b.Add(ev(i))
	}
	got := b.Events()
	if len(got) != 4 {
		t.Fatalf("len = %d, want 4", len(got))
	}
	for i, e := range got {
		if e.Seq != uint32(6+i) {
			t.Fatalf("wrong retained window: %v", got)
		}
	}
	if b.Total() != 10 {
		t.Errorf("Total = %d, want 10", b.Total())
	}
}

func TestBufferFilter(t *testing.T) {
	b := New(16)
	b.Filter = func(e Event) bool { return e.Seq%2 == 0 }
	for i := 0; i < 8; i++ {
		b.Add(ev(i))
	}
	if len(b.Events()) != 4 {
		t.Errorf("filter kept %d events, want 4", len(b.Events()))
	}
}

func TestFprintMentionsDropped(t *testing.T) {
	b := New(2)
	for i := 0; i < 5; i++ {
		b.Add(ev(i))
	}
	var buf bytes.Buffer
	b.Fprint(&buf)
	if !strings.Contains(buf.String(), "3 earlier events dropped") {
		t.Errorf("missing drop notice:\n%s", buf.String())
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 3 {
		t.Errorf("printed %d lines, want 3", lines)
	}
}

func TestEventString(t *testing.T) {
	e := Event{
		At: time.Millisecond, Node: 2, Dir: SendMC, Peer: Multicast,
		Type: packet.TypeData, Flags: packet.FlagLast | packet.FlagPoll,
		MsgID: 1, Seq: 42, Len: 100,
	}
	s := e.String()
	for _, want := range []string{"n2", "mcast", "*", "data", "seq=42", "PL", "len=100"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestZeroCapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestFprintEmptyBuffer(t *testing.T) {
	b := New(4)
	var buf bytes.Buffer
	b.Fprint(&buf)
	if buf.Len() != 0 {
		t.Errorf("empty buffer printed %q, want nothing", buf.String())
	}
}

func TestDirString(t *testing.T) {
	cases := []struct {
		d    Dir
		want string
	}{
		{Send, "send"}, {SendMC, "mcast"}, {Recv, "recv"}, {Drop, "drop"},
		{Dir(9), "dir(9)"}, {Dir(255), "dir(255)"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("Dir(%d).String() = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestEventsReturnsCopy(t *testing.T) {
	b := New(4)
	b.Add(ev(0))
	got := b.Events()
	got[0].Seq = 999
	if b.Events()[0].Seq != 0 {
		t.Error("Events() aliases the internal ring")
	}
}

// TestSharedBufferConcurrent hammers a shared buffer from several
// goroutines; correctness here is "no race, no lost counts" (validated
// under -race in CI).
func TestSharedBufferConcurrent(t *testing.T) {
	b := NewShared(8)
	const writers, perWriter = 4, 100
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				b.Add(ev(w*perWriter + i))
				if i%10 == 0 {
					b.Events()
					b.Total()
				}
			}
		}(w)
	}
	wg.Wait()
	if b.Total() != writers*perWriter {
		t.Errorf("Total = %d, want %d", b.Total(), writers*perWriter)
	}
	if len(b.Events()) != 8 {
		t.Errorf("retained %d events, want 8 (capacity)", len(b.Events()))
	}
}

// Property: after any sequence of adds, Events() returns the most
// recent min(n, cap) events in order.
func TestRingPropertyQuick(t *testing.T) {
	f := func(nRaw uint8, capRaw uint8) bool {
		n := int(nRaw)
		c := int(capRaw)%16 + 1
		b := New(c)
		for i := 0; i < n; i++ {
			b.Add(ev(i))
		}
		got := b.Events()
		want := n
		if want > c {
			want = c
		}
		if len(got) != want {
			return false
		}
		for i, e := range got {
			if e.Seq != uint32(n-want+i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The sink must observe every recorded event — including the final
// partial batch, which only Flush delivers. This is the regression test
// for the flush-on-session-close fix: without it, sink-derived packet
// counts fall short of Total() by up to one batch and disagree with the
// metrics session.
func TestSinkReceivesEverythingAfterFlush(t *testing.T) {
	b := New(4) // small ring: the sink must not be limited by retention
	var got []Event
	b.SetSink(8, func(batch []Event) {
		got = append(got, batch...) // copy: the batch slice is reused
	})
	const n = 8*3 + 5 // three full batches plus a partial tail
	for i := 0; i < n; i++ {
		b.Add(ev(i))
	}
	if len(got) != 24 {
		t.Fatalf("before Flush: sink saw %d events, want the 24 full batches", len(got))
	}
	b.Flush()
	if uint64(len(got)) != b.Total() {
		t.Fatalf("after Flush: sink saw %d events, Total() = %d", len(got), b.Total())
	}
	for i, e := range got {
		if e.Seq != uint32(i) {
			t.Fatalf("event %d out of order: seq %d", i, e.Seq)
		}
	}
}

func TestFlushIdempotentAndNilSafe(t *testing.T) {
	var nb *Buffer
	nb.Flush() // must not panic

	b := New(4)
	b.Flush() // no sink: no-op

	calls := 0
	b.SetSink(16, func(batch []Event) { calls++ })
	b.Add(ev(0))
	b.Flush()
	b.Flush() // nothing pending: must not re-deliver
	if calls != 1 {
		t.Fatalf("sink called %d times, want 1", calls)
	}
}

func TestSinkRespectsFilter(t *testing.T) {
	b := New(8)
	b.Filter = func(e Event) bool { return e.Seq%2 == 0 }
	var got int
	b.SetSink(2, func(batch []Event) { got += len(batch) })
	for i := 0; i < 10; i++ {
		b.Add(ev(i))
	}
	b.Flush()
	if got != 5 || b.Total() != 5 {
		t.Fatalf("sink saw %d events, Total() = %d, want 5 and 5", got, b.Total())
	}
}

func TestSharedBufferSinkConcurrent(t *testing.T) {
	b := NewShared(8)
	var n uint64
	b.SetSink(4, func(batch []Event) { n += uint64(len(batch)) }) // lock held: no atomics needed
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				b.Add(ev(w*100 + i))
			}
		}(w)
	}
	wg.Wait()
	b.Flush()
	if n != 400 {
		t.Fatalf("sink saw %d events, want 400", n)
	}
}

// TestEventSize pins Event's layout: widest fields first, so the three
// one-byte fields share the last word. Every traced run stores one
// Event per packet event, so a field added in the wrong place costs
// every trace a word per event.
func TestEventSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned on 64-bit only")
	}
	if got := unsafe.Sizeof(Event{}); got != 48 {
		t.Fatalf("unsafe.Sizeof(Event{}) = %d, want 48", got)
	}
}

// TestSinkZeroAllocs: once its ring is full, a buffer with a sink
// records an event without allocating — the batch is reused between
// deliveries — on a single-threaded buffer and on a shared one.
func TestSinkZeroAllocs(t *testing.T) {
	for _, shared := range []bool{false, true} {
		b := New(16)
		if shared {
			b = NewShared(16)
		}
		n := 0
		b.SetSink(64, func(batch []Event) { n += len(batch) })
		for i := 0; i < 100; i++ {
			b.Add(ev(i))
		}
		i := 100
		if a := testing.AllocsPerRun(1000, func() { b.Add(ev(i)); i++ }); a != 0 {
			t.Errorf("shared=%v: %.2f allocations per Add, want 0", shared, a)
		}
		if b.Flush(); uint64(n) != b.Total() {
			t.Errorf("shared=%v: sink saw %d events, Total() = %d", shared, n, b.Total())
		}
	}
}
