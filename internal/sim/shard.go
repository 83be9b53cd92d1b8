// Conservative-lookahead sharded execution: a Group of Simulators, one
// per topology shard, advancing in lock-step windows.
//
// The synchronization protocol is classic conservative (CMB-style)
// lookahead. Every cross-shard interaction carries at least `lookahead`
// of virtual latency (in this repository: the trunk propagation delay),
// so all events in the half-open window [m, m+lookahead) — where m is
// the global minimum next-event time — are causally independent across
// shards and may execute concurrently. Cross-shard handoffs are not
// injected mid-window; they are posted to per-(src,dst) mailboxes and
// drained at the next window boundary, sorted by (arrival, posting
// time, source shard, FIFO order) so same-instant deliveries enter the
// destination's queue in one deterministic total order.
//
// One shard is the primary: it hosts the completion condition (the
// multicast sender) and executes on the caller's goroutine first in
// every window, polling Done after each event so the run stops at
// exactly the event that completed it — the remaining shards then run
// the same window clamped to the completion instant, reproducing the
// serial loop's stop-at-completion semantics. The other shards run on
// persistent worker goroutines labeled for pprof ("shard" label), with
// window bounds and acknowledgements exchanged over channels, which
// also provides the happens-before edges that make mailbox and log
// handoff race-free.
package sim

import (
	"context"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
)

// post is one cross-shard event handoff: fn runs on the destination
// shard at time at. sent is the posting shard's clock at handoff time;
// it participates in the drain order so that same-instant arrivals keep
// the order a serial run would have scheduled them in.
type post struct {
	at   Time
	sent Time
	seq  uint64 // per-source FIFO counter
	fn   func()
}

// Shard is one partition of a sharded simulation: a Simulator plus
// outgoing mailboxes toward every other shard. All methods must be
// called from the shard's executing goroutine (the coordinator for the
// primary shard, the shard's worker otherwise); the Group's window
// barriers provide the synchronization for mailbox draining.
type Shard struct {
	id   int
	sim  *Simulator
	out  [][]post // indexed by destination shard
	nseq uint64
}

// ID returns the shard's index within its group.
func (s *Shard) ID() int { return s.id }

// Sim returns the shard's simulator.
func (s *Shard) Sim() *Simulator { return s.sim }

// Post schedules fn on shard dst at absolute time at. sent must be the
// posting shard's current time; at-sent must be at least the group's
// lookahead, or the destination may already have executed past at.
func (s *Shard) Post(dst int, at, sent Time, fn func()) {
	if dst == s.id {
		panic("sim: Post to the posting shard itself; schedule locally instead")
	}
	s.nseq++
	s.out[dst] = append(s.out[dst], post{at: at, sent: sent, seq: s.nseq, fn: fn})
}

// Group is a set of shards advancing under conservative lookahead
// synchronization.
type Group struct {
	shards    []*Shard
	lookahead Time
	scratch   []groupPost
}

type groupPost struct {
	post
	src, dst int
}

// NewGroup creates n shards with fresh simulators. lookahead must be
// positive: it is the minimum cross-shard latency that makes windowed
// execution safe.
func NewGroup(n int, lookahead Time) *Group {
	if n < 2 {
		panic("sim: shard group needs at least 2 shards")
	}
	if lookahead <= 0 {
		panic("sim: shard group needs positive lookahead")
	}
	g := &Group{lookahead: lookahead}
	for i := 0; i < n; i++ {
		g.shards = append(g.shards, &Shard{id: i, sim: New(), out: make([][]post, n)})
	}
	return g
}

// Len returns the number of shards.
func (g *Group) Len() int { return len(g.shards) }

// Shard returns shard i.
func (g *Group) Shard(i int) *Shard { return g.shards[i] }

// RunConfig configures one sharded run.
type RunConfig struct {
	// Primary is the shard holding the completion condition. It executes
	// on the caller's goroutine, first in every window.
	Primary int
	// Done, when non-nil, is polled after every primary-shard event; the
	// run stops once it reports true, with the other shards clamped to
	// events strictly before the completion instant (matching a serial
	// loop that breaks after the completing step).
	Done func() bool
	// Deadline, when positive, is the absolute virtual time edge: events
	// at or before it execute normally, then exactly one event past it
	// executes (the globally earliest) before the run stops — matching a
	// serial loop that checks the deadline after each step.
	Deadline Time
	// Barrier, when non-nil, runs on the caller's goroutine at the end
	// of every window, after all shards have synchronized — the hook for
	// merged log emission and wall-clock/cancellation checkpoints. A
	// non-nil error aborts the run and is returned from Run.
	Barrier func() error
}

// Run executes the group until the primary reports done, the deadline
// is crossed, every shard is exhausted, or the barrier aborts. It
// returns the global clock (the maximum shard time), whether Done
// reported true, and the barrier's error if it aborted the run.
func (g *Group) Run(rc RunConfig) (Time, bool, error) {
	primary := g.shards[rc.Primary]

	// Persistent workers for the non-primary shards. The bound send and
	// ack reply are the happens-before edges for everything the worker
	// touches (its simulator, mailboxes, and any per-shard logs).
	starts := make([]chan Time, len(g.shards))
	ack := make(chan struct{}, len(g.shards))
	var wg sync.WaitGroup
	for i, s := range g.shards {
		if i == rc.Primary {
			continue
		}
		starts[i] = make(chan Time, 1)
		wg.Add(1)
		go func(s *Shard, start <-chan Time) {
			defer wg.Done()
			pprof.Do(context.Background(), pprof.Labels("shard", strconv.Itoa(s.id)), func(context.Context) {
				for bound := range start {
					s.runTo(bound)
					ack <- struct{}{}
				}
			})
		}(s, starts[i])
	}
	defer func() {
		for i, ch := range starts {
			if i != rc.Primary {
				close(ch)
			}
		}
		wg.Wait()
	}()

	done := false
	barrier := func() error {
		if rc.Barrier != nil {
			return rc.Barrier()
		}
		return nil
	}
	for {
		g.drain()
		// Global minimum next-event time, lowest shard winning ties (the
		// same order merged logs use).
		m := Time(0)
		argmin := -1
		for _, s := range g.shards {
			if at, ok := s.sim.NextAt(); ok && (argmin < 0 || at < m) {
				m, argmin = at, s.id
			}
		}
		if argmin < 0 {
			return g.now(), done, barrier()
		}
		if rc.Deadline > 0 && m > rc.Deadline {
			// One event past the edge, exactly as a serial loop that
			// breaks on the deadline check after its step.
			over := g.shards[argmin]
			over.sim.Step()
			if over == primary && rc.Done != nil && rc.Done() {
				done = true
			}
			return g.now(), done, barrier()
		}
		bound := m + g.lookahead
		if rc.Deadline > 0 && bound > rc.Deadline+1 {
			bound = rc.Deadline + 1
		}
		// Phase A: the primary shard, polling Done after every event so
		// the completion instant is exact.
		for {
			at, ok := primary.sim.NextAt()
			if !ok || at >= bound {
				break
			}
			primary.sim.Step()
			if rc.Done != nil && rc.Done() {
				done = true
				break
			}
		}
		phaseB := bound
		if done {
			// Events at the completion instant or later never ran in the
			// serial loop; clamp the remaining shards below it.
			phaseB = primary.sim.Now()
		}
		for i := range g.shards {
			if i != rc.Primary {
				starts[i] <- phaseB
			}
		}
		for i := 1; i < len(g.shards); i++ {
			<-ack
		}
		if err := barrier(); err != nil {
			return g.now(), done, err
		}
		if done {
			return g.now(), true, nil
		}
	}
}

// runTo executes the shard's events with timestamps strictly below
// bound.
func (s *Shard) runTo(bound Time) {
	for {
		at, ok := s.sim.NextAt()
		if !ok || at >= bound {
			return
		}
		s.sim.Step()
	}
}

// now returns the global clock: the maximum of the shard clocks.
func (g *Group) now() Time {
	t := Time(0)
	for _, s := range g.shards {
		if n := s.sim.Now(); n > t {
			t = n
		}
	}
	return t
}

// drain empties every mailbox into the destination simulators in one
// deterministic total order: (arrival time, posting time, source shard,
// per-source FIFO). Same-instant cross-shard deliveries therefore enter
// a destination's queue in the order a serial run would have scheduled
// them — by the time their sending transmitter finished serializing,
// then by the fabric's construction order.
func (g *Group) drain() {
	posts := g.scratch[:0]
	for si, s := range g.shards {
		for di := range s.out {
			for _, p := range s.out[di] {
				posts = append(posts, groupPost{post: p, src: si, dst: di})
			}
			s.out[di] = s.out[di][:0]
		}
	}
	sort.Slice(posts, func(i, j int) bool {
		a, b := posts[i], posts[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.sent != b.sent {
			return a.sent < b.sent
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.seq < b.seq
	})
	for _, p := range posts {
		g.shards[p.dst].sim.At(p.at, p.fn)
	}
	g.scratch = posts[:0]
}
