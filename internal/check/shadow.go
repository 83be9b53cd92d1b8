package check

import (
	"rmcast/internal/core"
	"rmcast/internal/packet"
	"rmcast/internal/trace"
	"rmcast/internal/window"
)

// This file holds the two shadow state machines several checkers rebuild
// from the event stream. Both rely on the trace chronology guarantee: a
// node's Recv event is recorded before its endpoint processes the
// packet, and anything the endpoint sends in response is recorded after.
// The shadow is therefore exactly as current as the real endpoint at the
// moment each of the endpoint's own events is observed.

// recvShadow mirrors one receiver's in-order assembly state
// (core.Receiver.next / have): what the receiver may honestly claim to
// hold at any point of the stream.
type recvShadow struct {
	// active mirrors the allocation handshake: data arriving before the
	// receiver saw an allocation request is dropped by the real receiver,
	// so the shadow must not count it either.
	active  bool
	next    uint32
	have    []bool // selective repeat only
	gotLast bool   // received the FlagLast packet (seq count-1) at some point
}

// recvShadows tracks one recvShadow per receiver node.
type recvShadows struct {
	selective bool
	count     uint32
	m         map[int]*recvShadow
	// absent mirrors the receivers' not-yet-admitted gate: an absent
	// node drops everything it overhears except its own TypeJoinOK.
	absent map[int]bool
}

func newRecvShadows(info *RunInfo) *recvShadows {
	s := &recvShadows{
		selective: info.Proto.ARQ == core.ARQSelective,
		count:     info.Count,
		m:         make(map[int]*recvShadow, info.Proto.NumReceivers),
		absent:    make(map[int]bool, len(info.Proto.Absent)),
	}
	for _, a := range info.Proto.Absent {
		s.absent[int(a)] = true
	}
	return s
}

func (s *recvShadows) at(node int) *recvShadow {
	r := s.m[node]
	if r == nil {
		r = &recvShadow{}
		s.m[node] = r
	}
	return r
}

// observe replays receiver-side receptions. Mirrors
// Receiver.onAllocReq/onData exactly: Go-Back-N discards out-of-order
// data (next advances only on seq == next); selective repeat buffers it
// and extends the in-order run over the receipt map. Snapshots replay
// the original data packets, and a TypeJoinOK with an active session
// activates a late joiner exactly as an allocation request would.
func (s *recvShadows) observe(e trace.Event) {
	if e.Node == 0 || e.Dir != trace.Recv {
		return
	}
	if s.absent[e.Node] {
		if e.Type == packet.TypeJoinOK {
			delete(s.absent, e.Node)
			if e.Flags&packet.FlagActive != 0 {
				r := s.at(e.Node)
				r.active = true
				if s.selective {
					r.have = make([]bool, s.count)
				}
			}
		}
		return
	}
	r := s.at(e.Node)
	switch e.Type {
	case packet.TypeAllocReq:
		if !r.active {
			r.active = true
			if s.selective {
				r.have = make([]bool, s.count)
			}
		}
	case packet.TypeData, packet.TypeSnap:
		if !r.active || e.Seq >= s.count {
			return
		}
		switch {
		case e.Seq == r.next:
			if r.have != nil {
				r.have[e.Seq] = true
			}
			r.next++
			for r.have != nil && r.next < s.count && r.have[r.next] {
				r.next++
			}
		case e.Seq > r.next && r.have != nil:
			r.have[e.Seq] = true
		}
		if e.Seq == s.count-1 {
			r.gotLast = true
		}
	}
}

// senderShadow mirrors the sender's acknowledgment bookkeeping: the
// per-peer cumulative-ack minimum (over chain heads for the tree
// protocol) and the window base it implies. It consumes only node-0
// events, so it advances in lockstep with the real sender.
type senderShadow struct {
	count   uint32
	winSize uint32
	isTree  bool
	tree    core.FlatTree
	tracker *window.MinTracker
	dead    map[core.NodeID]bool // ejected or departed ranks
	out     map[core.NodeID]bool // dead ∪ still-absent (chain-liveness view)
	// catch mirrors Sender.treeCatch: mid-chain tree joiners tracked
	// directly until their own acknowledgment passes the handover mark.
	catch map[core.NodeID]uint32
	base  uint32
}

func newSenderShadow(info *RunInfo) *senderShadow {
	s := &senderShadow{
		count:   info.Count,
		winSize: uint32(info.Proto.WindowSize),
		dead:    make(map[core.NodeID]bool),
		catch:   make(map[core.NodeID]uint32),
	}
	// Absent ranks (late joiners) start outside the tracked membership,
	// exactly as NewSender seeds them into its out set.
	out := make(map[core.NodeID]bool, len(info.Proto.Absent))
	for _, a := range info.Proto.Absent {
		out[a] = true
	}
	var peers []int
	if info.Proto.Protocol == core.ProtoTree {
		s.isTree = true
		s.tree = info.Proto.Tree()
		for _, h := range s.tree.Heads() {
			if nh, ok := s.tree.HeadAlive(s.tree.Chain(h), out); ok {
				peers = append(peers, int(nh))
			}
		}
	} else {
		for r := 1; r <= info.Proto.NumReceivers; r++ {
			if !out[core.NodeID(r)] {
				peers = append(peers, r)
			}
		}
	}
	s.tracker = window.NewMinTracker(peers)
	s.out = out
	return s
}

// observe replays the sender's view. Acks and pongs raise per-peer
// progress (MinTracker.Update ignores removed peers, matching the
// sender's dead-peer filter); an eject or graceful-leave announcement
// removes the peer — with the tree protocol's head handover, seeding
// the next surviving chain member with the old head's aggregate,
// exactly as Sender.depart does. A join announcement splices the
// newcomer in, seeded at the join base, exactly as Sender.spliceJoiner
// does — pinning the shadow window until the joiner catches up.
func (s *senderShadow) observe(e trace.Event) {
	if e.Node != 0 {
		return
	}
	switch {
	case e.Dir == trace.Recv && (e.Type == packet.TypeAck || e.Type == packet.TypePong):
		cum := e.Seq
		if cum > s.count {
			cum = s.count
		}
		changed := s.tracker.Update(e.Peer, cum)
		if s.reap(core.NodeID(e.Peer), cum) {
			changed = true
		}
		if changed {
			s.refresh()
		}
	case e.Dir == trace.SendMC && (e.Type == packet.TypeEject || e.Type == packet.TypeLeft):
		rank := core.NodeID(e.Aux)
		if rank < 1 || s.dead[rank] {
			return
		}
		s.dead[rank] = true
		s.out[rank] = true
		if _, catching := s.catch[rank]; catching {
			delete(s.catch, rank)
			s.tracker.Remove(int(rank))
		} else if v, tracked := s.tracker.Value(int(rank)); tracked {
			s.tracker.Remove(int(rank))
			if s.isTree {
				if nh, ok := s.tree.HeadAlive(s.tree.Chain(rank), s.out); ok {
					if _, direct := s.catch[nh]; direct {
						delete(s.catch, nh)
					} else {
						s.tracker.Add(int(nh), v)
					}
				}
			}
		}
		s.refresh()
	case e.Dir == trace.SendMC && e.Type == packet.TypeJoined:
		rank := core.NodeID(e.Aux)
		if rank < 1 || !s.out[rank] || s.dead[rank] {
			return
		}
		delete(s.out, rank)
		base := e.Seq
		if !s.isTree {
			s.tracker.Add(int(rank), base)
			s.refresh()
			return
		}
		c := s.tree.Chain(rank)
		if nh, ok := s.tree.HeadAlive(c, s.out); ok && nh == rank {
			// The joiner is the chain's new acting head: its entry
			// replaces the old head's permanently (Sender.spliceJoiner).
			for _, m := range s.tree.Members(c) {
				if _, direct := s.catch[m]; m != rank && !direct {
					s.tracker.Remove(int(m))
				}
			}
			s.tracker.Add(int(rank), base)
			s.refresh()
			return
		}
		mark := base + s.winSize
		if mark > s.count {
			mark = s.count
		}
		s.catch[rank] = mark
		s.tracker.Add(int(rank), base)
		s.refresh()
	}
}

// reap mirrors Sender.reapJoiners: a mid-chain joiner's direct tracker
// entry retires only on its OWN acknowledgment crossing the handover
// mark. Returns true if an entry was removed.
func (s *senderShadow) reap(from core.NodeID, cum uint32) bool {
	mark, catching := s.catch[from]
	if !catching || cum < mark {
		return false
	}
	delete(s.catch, from)
	if nh, ok := s.tree.HeadAlive(s.tree.Chain(from), s.out); ok && nh == from {
		return false
	}
	s.tracker.Remove(int(from))
	return true
}

// refresh folds the current acknowledgment minimum into the window base
// (monotone, like window.Sender.Ack).
func (s *senderShadow) refresh() {
	if s.tracker.Peers() == 0 {
		return
	}
	if m := s.tracker.Min(); m > s.base {
		s.base = m
	}
}
