// Package pool is the recycling the simulator, the network model and the
// live stack share: a free list for one goroutine (Stack), one for the
// whole process (List), and a reference count whose last release sends
// a buffer back to one of them (Refs).
//
// Both lists are LIFO, not sync.Pool: the buffer handed out next is the
// one just returned, still in cache, and what a run draws does not depend
// on when the garbage collector last ran.
package pool

import (
	"reflect"
	"sync"
)

// Stack is a LIFO free list for one goroutine. The zero value is empty.
// It is a plain slice, bottom first, so its owner may range over what it
// holds or empty it with s = s[:0], keeping the capacity.
type Stack[T any] []T

// Push puts x on top.
func (s *Stack[T]) Push(x T) { *s = append(*s, x) }

// Pop takes the item pushed last; ok is false on an empty stack. The
// slot is not cleared: a stack recycles buffers its owner keeps anyway,
// and the store would cost Pop its place inline in its callers.
func (s *Stack[T]) Pop() (x T, ok bool) {
	if k := len(*s) - 1; k >= 0 {
		x, *s = (*s)[k], (*s)[:k]
		return x, true
	}
	return x, false
}

// Len reports how many items the stack holds.
func (s *Stack[T]) Len() int { return len(*s) }

// List is a LIFO free list any goroutine may use. The zero value is
// empty and unbounded; NewList makes one bounded by bytes.
type List[T any] struct {
	mu    sync.Mutex
	items []T
	bytes int         // the items' size, summed, on a bounded list
	max   int         // the bound; zero for none
	size  func(T) int // an item's bytes
}

// NewList returns an empty list that holds at most max bytes of items,
// an item weighing size(item).
func NewList[T any](max int, size func(T) int) *List[T] {
	return &List[T]{max: max, size: size}
}

// Get takes the item put last; ok is false on an empty list.
func (l *List[T]) Get() (x T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	k := len(l.items) - 1
	if k < 0 {
		return x, false
	}
	x = l.items[k]
	clear(l.items[k:]) // a taker may drop x; the list must not pin it
	l.items = l.items[:k]
	if l.max > 0 {
		l.bytes -= l.size(x)
	}
	return x, true
}

// Put adds x on top and reports whether it was kept. A bounded list
// drops an item that would take it past its bound, for the garbage
// collector, so that one very large run does not pin its peak for the
// life of the process; an item that lands exactly on the bound is kept.
func (l *List[T]) Put(x T) (kept bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.max > 0 {
		if l.bytes+l.size(x) > l.max {
			return false
		}
		l.bytes += l.size(x)
	}
	l.items = append(l.items, x)
	return true
}

// Len reports how many items the list holds.
func (l *List[T]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.items)
}

// Bytes reports the summed size of a bounded list's items.
func (l *List[T]) Bytes() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
}

// Refs is a reference count for a buffer of type Owner that one
// goroutine uses at a time. It starts at zero, as a buffer comes off
// its free list: the buffer's taker Retains the first reference, and
// the Release that brings the count back to zero tells the caller to
// return the buffer. Releasing more often than retained panics, naming
// Owner.
type Refs[Owner any] struct {
	n int32
}

// Retain adds a reference.
func (r *Refs[Owner]) Retain() { r.n++ }

// Release drops a reference and reports whether it was the last.
func (r *Refs[Owner]) Release() (last bool) {
	r.n--
	if r.n < 0 {
		panic(underflow[Owner]{})
	}
	return r.n == 0
}

// underflow is Release's panic: a value, not a formatted string, so that
// Release stays cheap enough to inline into its callers.
type underflow[Owner any] struct{}

func (underflow[Owner]) Error() string {
	return "pool: " + reflect.TypeFor[Owner]().String() + " released more often than retained"
}
