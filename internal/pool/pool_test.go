package pool

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

type buf struct{ b []byte }

func TestStackIsLIFO(t *testing.T) {
	var s Stack[int]
	for i := 1; i <= 3; i++ {
		s.Push(i)
	}
	s.Pop()
	s.Push(4)
	var got []int
	for x, ok := s.Pop(); ok; x, ok = s.Pop() {
		got = append(got, x)
	}
	if fmt.Sprint(got) != "[4 2 1]" || s.Len() != 0 {
		t.Fatalf("popped %v, leaving %d; want [4 2 1], leaving 0", got, s.Len())
	}
}

func TestEmptyStackPopsZero(t *testing.T) {
	var s Stack[*buf]
	if x, ok := s.Pop(); ok || x != nil {
		t.Fatalf("Pop on an empty stack returned %v, %v; want nil, false", x, ok)
	}
	s.Push(&buf{})
	s.Pop()
	if x, ok := s.Pop(); ok || x != nil {
		t.Fatalf("Pop on an emptied stack returned %v, %v; want nil, false", x, ok)
	}
}

func TestListIsLIFO(t *testing.T) {
	var l List[string]
	if x, ok := l.Get(); ok || x != "" {
		t.Fatalf("Get on an empty list returned %q, %v", x, ok)
	}
	for _, x := range []string{"a", "b", "c"} {
		if !l.Put(x) {
			t.Fatalf("an unbounded list dropped %q", x)
		}
	}
	var got []string
	for x, ok := l.Get(); ok; x, ok = l.Get() {
		got = append(got, x)
	}
	if strings.Join(got, "") != "cba" || l.Len() != 0 || l.Bytes() != 0 {
		t.Fatalf("got %v, leaving %d items and %d bytes; want [c b a] and nothing left", got, l.Len(), l.Bytes())
	}
}

// TestListCapBoundary: an item that lands exactly on the bound is kept;
// one byte over is dropped, and the list stays as it was.
func TestListCapBoundary(t *testing.T) {
	l := NewList(100, func(b *buf) int { return cap(b.b) })
	if !l.Put(&buf{b: make([]byte, 60)}) {
		t.Fatal("a 60-byte item on an empty 100-byte list was dropped")
	}
	if l.Put(&buf{b: make([]byte, 41)}) {
		t.Fatal("an item one byte past the bound was kept")
	}
	if l.Len() != 1 || l.Bytes() != 60 {
		t.Fatalf("a dropped item left %d items and %d bytes, want 1 and 60", l.Len(), l.Bytes())
	}
	if !l.Put(&buf{b: make([]byte, 40)}) {
		t.Fatal("an item landing exactly on the bound was dropped")
	}
	if l.Len() != 2 || l.Bytes() != 100 {
		t.Fatalf("the list holds %d items and %d bytes, want 2 and 100", l.Len(), l.Bytes())
	}
	if b, _ := l.Get(); cap(b.b) != 40 || l.Bytes() != 60 {
		t.Fatalf("Get took a %d-byte item, leaving %d bytes; want 40, leaving 60", cap(b.b), l.Bytes())
	}
}

func TestRefsCountsToLast(t *testing.T) {
	var r Refs[buf]
	r.Retain()
	r.Retain()
	if r.Release() {
		t.Fatal("the first of two releases reported the last")
	}
	if !r.Release() {
		t.Fatal("the second of two releases did not report the last")
	}
}

// TestRefsUnderflowPanics: a release below zero panics, naming the
// owner, instead of letting a stale holder free a buffer a new holder
// took.
func TestRefsUnderflowPanics(t *testing.T) {
	var r Refs[buf]
	r.Retain()
	r.Release()
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "pool.buf released more often than retained") {
			t.Fatalf("recovered %q, want a panic naming pool.buf", msg)
		}
	}()
	r.Release()
}

// TestListConcurrentGetPut: goroutines taking and returning items at
// once never share one and lose none. Run it under -race.
func TestListConcurrentGetPut(t *testing.T) {
	const workers, rounds, items = 4, 1000, 8
	l := NewList(items*8, func(b *buf) int { return cap(b.b) })
	for i := 0; i < items; i++ {
		l.Put(&buf{b: make([]byte, 8)})
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				b, ok := l.Get()
				if !ok {
					continue
				}
				b.b[0] = byte(w) // a shared item is a race the detector reports
				if !l.Put(b) {
					t.Error("a returned item did not fit the list it came from")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if l.Len() != items || l.Bytes() != items*8 {
		t.Fatalf("the list holds %d items and %d bytes, want %d and %d", l.Len(), l.Bytes(), items, items*8)
	}
}

func TestStackZeroAllocs(t *testing.T) {
	var s Stack[*buf]
	b := &buf{}
	s.Push(b)
	if n := testing.AllocsPerRun(1000, func() {
		x, _ := s.Pop()
		s.Push(x)
	}); n != 0 {
		t.Fatalf("a warm Pop and Push allocated %.1f objects, want 0", n)
	}
}

func TestListZeroAllocs(t *testing.T) {
	l := NewList(1<<10, func(b *buf) int { return cap(b.b) })
	l.Put(&buf{b: make([]byte, 64)})
	if n := testing.AllocsPerRun(1000, func() {
		x, _ := l.Get()
		l.Put(x)
	}); n != 0 {
		t.Fatalf("a warm Get and Put allocated %.1f objects, want 0", n)
	}
}
