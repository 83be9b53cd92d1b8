package sim

import (
	"math/rand"
	"testing"
	"unsafe"
)

// postWorld replays one seeded sequence of scheduling and firing, with
// handlers that fan out further events from inside a run the way
// txSerialized posts txDeliver. With post set the fan-outs go through
// Post, else through AtFunc; everything else is the same on both sides.
type postWorld struct {
	s     *Simulator
	post  bool
	rng   *rand.Rand
	n     int       // events scheduled so far
	joins int       // Posts that joined a run
	ids   []EventID // the cancellable (AtFunc) events
	fired []int
	times []Time
}

const postBudget = 400 // events per sequence, so fan-outs cannot run away

// fanOut schedules k events at at, through Post or AtFunc.
func (w *postWorld) fanOut(k int, at Time) {
	for ; k > 0 && w.n < postBudget; k-- {
		fn := postFork
		if w.rng.Intn(3) == 0 {
			fn = postLeaf
		}
		num := w.n
		w.n++
		if w.post {
			w.s.Post(at, fn, w, num)
			if w.s.runHead != w.s.runTail {
				w.joins++
			}
		} else {
			w.s.AtFunc(at, fn, w, num)
		}
	}
}

// plain schedules one cancellable event at at, on both sides.
func (w *postWorld) plain(at Time) {
	if w.n < postBudget {
		num := w.n
		w.n++
		w.ids = append(w.ids, w.s.AtFunc(at, postLeaf, w, num))
	}
}

// act is one random step of the sequence's mix, run by the replay loop and
// by postFork handlers: fan-outs at this instant or a little later, a
// plain event between them, or a cancel.
func (w *postWorld) act() {
	now := w.s.Now()
	switch w.rng.Intn(6) {
	case 0, 1:
		w.fanOut(1+w.rng.Intn(6), now+Time(w.rng.Intn(3)))
	case 2:
		// Two fan-outs at one instant, a plain event between them.
		at := now + Time(w.rng.Intn(2))
		w.fanOut(1+w.rng.Intn(4), at)
		w.plain(at)
		w.fanOut(1+w.rng.Intn(4), at)
	case 3:
		w.plain(now + Time(w.rng.Intn(3)))
	case 4:
		if len(w.ids) > 0 {
			w.s.Cancel(w.ids[w.rng.Intn(len(w.ids))])
		}
	}
}

func (w *postWorld) record(num int) {
	w.fired = append(w.fired, num)
	w.times = append(w.times, w.s.Now())
}

func postFork(a, b any) {
	w := a.(*postWorld)
	w.record(b.(int))
	for k := w.rng.Intn(3); k > 0; k-- {
		w.act()
	}
}

func postLeaf(a, b any) { a.(*postWorld).record(b.(int)) }

// replay runs the sequence seeded by seed to the end.
func replayPosts(seed int64, post bool) *postWorld {
	w := &postWorld{s: New(), post: post, rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < 60; i++ {
		switch w.rng.Intn(4) {
		case 0:
			w.s.Step()
		case 1:
			w.s.NextAt()
		case 2:
			w.s.RunUntil(w.s.Now() + Time(w.rng.Intn(3)))
		default:
			w.act()
		}
	}
	w.s.Run()
	return w
}

// TestPostMatchesAtFunc: Post changes how the queue stores a fan-out,
// never what fires when. Every seeded sequence fires the same events at
// the same times, in the same order, whether its fan-outs are Posts or
// AtFuncs, including fan-outs posted from inside a run.
func TestPostMatchesAtFunc(t *testing.T) {
	joined := 0
	for seed := int64(1); seed <= 2000; seed++ {
		want := replayPosts(seed, false)
		got := replayPosts(seed, true)
		if len(got.fired) != len(want.fired) {
			t.Fatalf("seed %d: Posts fired %d events, AtFuncs %d", seed, len(got.fired), len(want.fired))
		}
		for i := range want.fired {
			if got.fired[i] != want.fired[i] || got.times[i] != want.times[i] {
				t.Fatalf("seed %d: event %d fired %d at %v with Posts, %d at %v with AtFuncs",
					seed, i, got.fired[i], got.times[i], want.fired[i], want.times[i])
			}
		}
		if got.s.Fired() != want.s.Fired() || got.s.Now() != want.s.Now() || got.s.Pending() != 0 {
			t.Fatalf("seed %d: Posts end at %v after %d events (%d pending), AtFuncs at %v after %d",
				seed, got.s.Now(), got.s.Fired(), got.s.Pending(), want.s.Now(), want.s.Fired())
		}
		joined += got.joins
		got.s.Release()
		want.s.Release()
	}
	if joined == 0 {
		t.Fatal("no Post joined a run")
	}
	t.Logf("%d Posts joined a run", joined)
}

// TestPostRunSharesOneEntry: a fan-out of 30 Posts at one instant files
// one queue entry, and a Post that does not meet the rule (another
// instant, a schedule in between, a run whose head has fired) starts a
// new one.
func TestPostRunSharesOneEntry(t *testing.T) {
	s := New()
	defer s.Release()
	entries := func() int {
		n := len(s.b0)
		for k := range s.buckets {
			if s.full&(1<<k) != 0 {
				for idx := s.buckets[k].head; idx != noSlot; idx = s.slots[idx].next {
					n++
				}
			}
		}
		return n
	}
	for i := 0; i < 30; i++ {
		s.Post(5, nopEvent, nil, nil)
	}
	if n := entries(); n != 1 || s.Pending() != 30 {
		t.Fatalf("30 Posts at one instant file %d entries, %d pending; want 1 and 30", n, s.Pending())
	}
	s.Post(6, nopEvent, nil, nil) // another instant
	s.AtFunc(6, nopEvent, nil, nil)
	s.Post(6, nopEvent, nil, nil) // a schedule in between
	if n := entries(); n != 4 {
		t.Fatalf("%d entries after three events that may not join, want 4", n)
	}
	s.Step()
	s.Post(5, nopEvent, nil, nil) // the run at 5 has started firing
	if n := entries(); n != 5 {
		t.Fatalf("%d entries after a Post behind a firing run, want 5", n)
	}
	if s.Run(); s.Fired() != 34 {
		t.Fatalf("fired %d events, want 34", s.Fired())
	}
}

// TestSlotSize: the run link sits in the padding after state, so a slab
// slot stays 80 bytes.
func TestSlotSize(t *testing.T) {
	if n := unsafe.Sizeof(slot{}); n != 80 {
		t.Fatalf("slot is %d bytes, want 80", n)
	}
}
