// Package window implements the Go-Back-N sliding-window bookkeeping
// shared by all four reliable multicast protocols: the sender window over
// a fixed packet count, and a cumulative-acknowledgment minimum tracker
// over a set of peers.
//
// The paper chose Go-Back-N over selective repeat because wired-LAN
// error rates make the simpler scheme perform identically (Section 4);
// the same trade-off is made here.
package window

import "fmt"

// Sender tracks the Go-Back-N send window for a message of Count packets.
//
// Invariants (checked by Check and exercised by property tests):
//
//	Base <= Next <= Base+Size
//	Next <= Count
//	Base <= Count
type Sender struct {
	// Size is the window size in packets.
	Size int
	// Count is the total number of packets in the message.
	Count uint32
	// Base is the oldest unacknowledged sequence number.
	Base uint32
	// Next is the next sequence number to transmit for the first time.
	Next uint32
}

// NewSender returns a window of size w for a message of count packets.
func NewSender(w int, count uint32) *Sender {
	if w <= 0 {
		panic("window: non-positive window size")
	}
	return &Sender{Size: w, Count: count}
}

// CanSend reports whether a new (never-sent) packet may be transmitted.
// The window edge is computed in 64 bits: near the top of the sequence
// space (Count approaching 2^32-1) Base+Size overflows uint32 and a
// 32-bit comparison would wedge the window shut with packets left to
// send.
func (s *Sender) CanSend() bool {
	return s.Next < s.Count && uint64(s.Next) < uint64(s.Base)+uint64(s.Size)
}

// Sent records the transmission of sequence Next and returns it.
func (s *Sender) Sent() uint32 {
	if !s.CanSend() {
		panic("window: Sent called with window closed")
	}
	seq := s.Next
	s.Next++
	return seq
}

// Ack advances Base to cum (a cumulative acknowledgment: the smallest
// sequence not yet acknowledged by every required peer). It reports
// whether the window actually advanced. Regressions are ignored.
func (s *Sender) Ack(cum uint32) bool {
	if cum > s.Count {
		cum = s.Count
	}
	if cum <= s.Base {
		return false
	}
	if cum > s.Next {
		// Acknowledging packets never sent indicates a protocol bug.
		panic(fmt.Sprintf("window: ack %d beyond next %d", cum, s.Next))
	}
	s.Base = cum
	return true
}

// Outstanding returns the number of sent-but-unacknowledged packets.
func (s *Sender) Outstanding() int { return int(s.Next - s.Base) }

// Done reports whether every packet has been acknowledged.
func (s *Sender) Done() bool { return s.Base == s.Count }

// Check panics if the window invariants are violated; used in tests and
// cheap enough to call from protocol code under debug builds.
func (s *Sender) Check() {
	if s.Base > s.Next {
		panic(fmt.Sprintf("window: base %d > next %d", s.Base, s.Next))
	}
	if uint64(s.Next) > uint64(s.Base)+uint64(s.Size) {
		panic(fmt.Sprintf("window: next %d beyond base %d + size %d", s.Next, s.Base, s.Size))
	}
	if s.Next > s.Count {
		panic(fmt.Sprintf("window: next %d > count %d", s.Next, s.Count))
	}
}

// MinTracker tracks the minimum of monotonically non-decreasing
// cumulative acknowledgments across a fixed peer set. Peers are dense
// small non-negative integers (receiver ranks or chain-head ranks), so
// the tracker indexes slices by peer. It also counts the peers sitting at
// the minimum: an acknowledgment from one of them costs O(1), and only
// the last one to leave the floor pays an O(peers) rescan.
type MinTracker struct {
	vals  []uint32 // by peer
	in    []bool   // by peer: tracked
	n     int      // tracked peers
	min   uint32   // lower-bounds every tracked value
	atMin int      // tracked peers whose value equals min; 0: rescan due
}

// NewMinTracker creates a tracker over peers, all starting at zero.
func NewMinTracker(peers []int) *MinTracker {
	if len(peers) == 0 {
		panic("window: MinTracker with no peers")
	}
	top := 0
	for _, p := range peers {
		top = max(top, p)
	}
	m := &MinTracker{vals: make([]uint32, top+1), in: make([]bool, top+1)}
	for _, p := range peers {
		if !m.in[p] {
			m.in[p] = true
			m.n++
		}
	}
	m.atMin = m.n
	return m
}

// tracked reports whether peer is in the tracked set.
func (m *MinTracker) tracked(peer int) bool {
	return peer >= 0 && peer < len(m.in) && m.in[peer]
}

// Update raises peer's cumulative value to v (ignored if lower, or if the
// peer is not tracked — e.g. a non-head receiver in the tree protocol).
// It returns true if the overall minimum may have changed.
func (m *MinTracker) Update(peer int, v uint32) bool {
	if !m.tracked(peer) || v <= m.vals[peer] {
		return false
	}
	if m.vals[peer] == m.min {
		m.atMin-- // one fewer peer holds the floor
	}
	m.vals[peer] = v
	return true
}

// Value returns peer's current cumulative value and whether it is tracked.
func (m *MinTracker) Value(peer int) (uint32, bool) {
	if !m.tracked(peer) {
		return 0, false
	}
	return m.vals[peer], true
}

// Remove drops peer from the tracked set (membership ejection). It
// reports whether the peer was tracked. Removing the peer that held the
// minimum lets the minimum advance; the caller must handle the tracker
// becoming empty (Peers() == 0), which means no acknowledgment is owed
// by anyone.
func (m *MinTracker) Remove(peer int) bool {
	if !m.tracked(peer) {
		return false
	}
	m.in[peer] = false
	m.n--
	if m.vals[peer] == m.min {
		m.atMin--
	}
	return true
}

// Add starts tracking peer at cumulative value v — used when a tree
// chain head is ejected and the next surviving chain member takes over
// its acknowledgment stream. v must lower-bound the new peer's true
// progress so monotonicity is preserved; the ejected head's last
// reported aggregate qualifies (a chain's aggregate only grows when a
// member is removed from the minimum). Adding a tracked peer resets its
// value to v.
func (m *MinTracker) Add(peer int, v uint32) {
	if peer >= len(m.in) {
		m.vals = append(m.vals, make([]uint32, peer+1-len(m.vals))...)
		m.in = append(m.in, make([]bool, peer+1-len(m.in))...)
	}
	m.Remove(peer)
	m.in[peer] = true
	m.n++
	m.vals[peer] = v
	switch {
	case v < m.min:
		m.min, m.atMin = v, 1
	case v == m.min:
		m.atMin++
	}
}

// Min returns the minimum cumulative value across all peers.
func (m *MinTracker) Min() uint32 {
	if m.atMin > 0 || m.n == 0 {
		return m.min
	}
	first := true
	for p, in := range m.in {
		switch v := m.vals[p]; {
		case !in:
		case first || v < m.min:
			m.min, m.atMin, first = v, 1, false
		case v == m.min:
			m.atMin++
		}
	}
	return m.min
}

// Peers returns the number of tracked peers.
func (m *MinTracker) Peers() int { return m.n }
