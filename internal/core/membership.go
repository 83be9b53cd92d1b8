// Dynamic membership: the late-join handshake with catch-up and the
// graceful-leave path, for both endpoints.
//
// Joining. An absent rank (Config.Absent) unicasts TypeJoinReq until
// the sender answers. The sender admits it — multicasting TypeJoined so
// the group splices its chain views, and unicasting TypeJoinOK with the
// session parameters, the join base, and the current membership — and
// splices the newcomer into the acknowledgment minimum seeded *at the
// join base*: the window is pinned there until the newcomer has caught
// up, so nothing the newcomer still needs is ever freed. The prefix
// below the join base is streamed to it as TypeSnap packets — replayed
// bit-for-bit with the original sequence numbers, offsets, and flags,
// so every acknowledgment duty (polls, rotation slots, chain
// aggregation) replays too — either by the sender or, under
// Config.JoinCatchup == CatchupPeer, by a caught-up peer the sender
// delegates to with TypeSnapDel. Lost snapshots are repaired by the
// joiner's ordinary gap NAKs (their sequences lie below the join base,
// which routes them to the snapshot path) plus a watchdog that re-NAKs
// if the stream goes silent.
//
// Leaving. A member unicasts TypeLeave until the sender announces
// TypeLeft: the sender drains the leaver's outstanding state — removes
// it from the acknowledgment minimum, hands its chain headship to the
// next survivor, resumes the window — without counting an ejection, and
// the leaver goes quiet the moment it sees its own TypeLeft.
package core

import (
	"encoding/binary"
	"time"

	"rmcast/internal/packet"
)

// snapBatch is the number of snapshot packets streamed per pacing
// interval (SuppressInterval) during late-join catch-up.
const snapBatch = 32

// joinerState tracks one admitted joiner's catch-up at the sender.
type joinerState struct {
	base       uint32 // first live sequence; snapshot covers [0, base)
	snapNext   uint32 // next snapshot sequence this sender will stream
	timer      TimerID
	gen        uint64
	lastRepair time.Duration
}

// --- sender side -----------------------------------------------------

// joinBaseNow returns the join base a newly admitted rank would get:
// the window base during the data phase (everything below it can no
// longer be repaired by ordinary retransmission), zero otherwise.
func (s *Sender) joinBaseNow() uint32 {
	if s.phase == phaseData {
		return s.win.Base
	}
	return 0
}

// onJoinReq admits a late joiner, or idempotently re-answers one whose
// JoinOK was lost.
func (s *Sender) onJoinReq(from NodeID) {
	if from < 1 || int(from) > s.cfg.NumReceivers || s.dead[from] {
		return // departures are final for this sender's lifetime
	}
	if !s.absent[from] {
		// Already admitted — the JoinOK was lost. Re-answer with the
		// same base: a mid-catch-up joiner has recorded state, and
		// otherwise the tracker seed has pinned the window at the
		// original base, so joinBaseNow still names it.
		base := s.joinBaseNow()
		if js, ok := s.joiners[from]; ok {
			base = js.base
		}
		s.sendJoinOK(from, base)
		return
	}
	delete(s.absent, from)
	delete(s.out, from)
	base := s.joinBaseNow()
	// Announce before answering so the group has spliced its chain
	// views by the time the newcomer first speaks.
	s.env.Multicast(&packet.Packet{Type: packet.TypeJoined, MsgID: s.msgID, Seq: base, Aux: uint32(from)})
	s.sendJoinOK(from, base)
	if s.phase != phaseAlloc && s.phase != phaseData {
		return // no session in flight: the joiner waits for the next AllocReq
	}
	s.spliceJoiner(from, base)
	if s.phase == phaseData {
		js := &joinerState{base: base, snapNext: base, lastRepair: -time.Hour}
		s.joiners[from] = js
		s.startCatchup(from, js)
		// The window is pinned at the join base until the newcomer
		// catches up; keep the retransmission timer armed so the stall
		// is bounded even with nothing else in flight.
		if s.timer == 0 {
			s.armTimer(s.dataRTO(s.cfg.RetransTimeout))
		}
	}
}

// sendJoinOK unicasts the admission answer: session parameters when one
// is in flight, and the current membership view either way.
func (s *Sender) sendJoinOK(to NodeID, base uint32) {
	p := &packet.Packet{
		Type:    packet.TypeJoinOK,
		MsgID:   s.msgID,
		Seq:     base,
		Payload: s.membershipView(to),
	}
	if s.phase == phaseAlloc || s.phase == phaseData {
		p.Flags |= packet.FlagActive
		p.Aux = uint32(len(s.msg))
	}
	s.env.Send(to, p)
}

// membershipView encodes the ranks currently outside the group (dead,
// left, or still absent), two bytes each, so a joiner can reconstruct
// the chain splices it never witnessed.
func (s *Sender) membershipView(exclude NodeID) []byte {
	if len(s.out) == 0 {
		return nil
	}
	buf := make([]byte, 0, 2*len(s.out))
	for r := 1; r <= s.cfg.NumReceivers; r++ {
		if id := NodeID(r); id != exclude && s.out[id] {
			buf = binary.BigEndian.AppendUint16(buf, uint16(r))
		}
	}
	return buf
}

// spliceJoiner inserts an admitted rank into the acknowledgment
// minimum, seeded at the join base so the window cannot advance past
// packets the newcomer can now only get as snapshot.
//
// For the tree protocol the newcomer gets its OWN entry rather than a
// re-seeded chain-head entry: acknowledgments the acting head sent
// before the splice can still be in flight, carrying aggregates at or
// above the join base that do not cover the newcomer — trusting them
// would unpin the window (and, worse, reap the snapshot stream) while
// the newcomer still needs everything. The newcomer acknowledges the
// sender directly (Receiver.maybeDirectAck) until its coverage passes
// base + WindowSize — beyond anything that was in flight at admission —
// at which point the chain aggregate is a sound lower bound again and
// reapJoiners retires the direct entry.
func (s *Sender) spliceJoiner(from NodeID, base uint32) {
	if s.acks == nil {
		return
	}
	if !s.isTree {
		s.acks.Add(int(from), base)
		return
	}
	c := s.tree.Chain(from)
	if nh, ok := s.tree.HeadAlive(c, s.out); ok && nh == from {
		// The newcomer is the chain's new acting head: its own direct
		// stream replaces the old acting head's entry permanently. Other
		// joiners' direct entries are left alone — each vouches for its
		// own catch-up.
		for _, m := range s.tree.Members(c) {
			if _, direct := s.treeCatch[m]; m != from && !direct {
				s.acks.Remove(int(m))
			}
		}
		s.acks.Add(int(from), base)
		return
	}
	mark := base + uint32(s.cfg.WindowSize)
	if mark > s.count {
		mark = s.count
	}
	s.treeCatch[from] = mark
	s.acks.Add(int(from), base)
}

// startCatchup begins serving the snapshot prefix [0, base): delegated
// to a caught-up peer under CatchupPeer, streamed from here otherwise.
func (s *Sender) startCatchup(to NodeID, js *joinerState) {
	if js.base == 0 || s.phase != phaseData {
		return
	}
	if s.cfg.JoinCatchup == CatchupPeer {
		if d, ok := s.pickDelegate(to, js.base); ok {
			s.env.Send(d, &packet.Packet{
				Type: packet.TypeSnapDel, MsgID: s.msgID, Seq: js.base, Aux: uint32(to),
			})
			return // js.snapNext stays at base: nothing streams from here unless repair demotes it
		}
	}
	js.snapNext = 0
	s.pumpSnaps(to, js)
}

// pickDelegate returns a member that provably holds [0, base) — its
// tracked cumulative value is at least base — to serve the snapshot.
func (s *Sender) pickDelegate(joiner NodeID, base uint32) (NodeID, bool) {
	for r := 1; r <= s.cfg.NumReceivers; r++ {
		id := NodeID(r)
		if id == joiner || s.out[id] {
			continue
		}
		if v, ok := s.acks.Value(int(id)); ok && v >= base {
			return id, true
		}
	}
	return 0, false
}

// pumpSnaps streams one paced batch of snapshot packets and re-arms.
func (s *Sender) pumpSnaps(to NodeID, js *joinerState) {
	if js.timer != 0 {
		s.env.CancelTimer(js.timer)
		js.timer = 0
	}
	js.gen++
	if s.phase != phaseData || js.snapNext >= js.base {
		return
	}
	for n := 0; js.snapNext < js.base && n < snapBatch; n++ {
		s.sendSnap(to, js.snapNext)
		js.snapNext++
	}
	if js.snapNext >= js.base {
		return
	}
	gen := js.gen
	js.timer = s.env.SetTimer(s.cfg.SuppressInterval, func() {
		if gen != js.gen || s.joiners[to] != js {
			return
		}
		js.timer = 0
		s.pumpSnaps(to, js)
	})
}

// sendSnap unicasts catch-up packet seq to a joiner, with the same
// offset, payload, and flags as the original data packet so the
// joiner's acknowledgment duties replay exactly.
func (s *Sender) sendSnap(to NodeID, seq uint32) {
	off := int(seq) * s.cfg.PacketSize
	end := off + s.cfg.PacketSize
	if end > len(s.msg) {
		end = len(s.msg)
	}
	var chunk []byte
	if off < len(s.msg) {
		chunk = s.msg[off:end]
	}
	var flags packet.Flags
	if seq == s.count-1 {
		flags |= packet.FlagLast
	}
	if s.cfg.Protocol == ProtoNAK && (int(seq+1)%s.cfg.PollInterval == 0 || seq == s.count-1) {
		flags |= packet.FlagPoll
	}
	s.env.Send(to, &packet.Packet{
		Type: packet.TypeSnap, Flags: flags, MsgID: s.msgID,
		Seq: seq, Aux: uint32(off), Payload: chunk,
	})
}

// repairSnap handles a joiner's NAK below its join base: rewind the
// snapshot stream to the missing sequence (suppressed, so a NAK burst
// triggers one rewind). Under peer delegation this is the fallback that
// keeps a dead or lossy delegate from wedging the join.
func (s *Sender) repairSnap(to NodeID, js *joinerState, seq uint32) {
	now := s.env.Now()
	if now-js.lastRepair < s.cfg.SuppressInterval {
		s.stats.SuppressedNaks++
		return
	}
	js.lastRepair = now
	if seq < js.snapNext {
		js.snapNext = seq
	}
	s.pumpSnaps(to, js)
}

// reapJoiners retires catch-up state on the joiner's own cumulative
// acknowledgment — the only sound evidence. A chain head's aggregate
// can arrive from before the splice (in flight at admission) and claim
// the base without covering the newcomer, so inherited aggregates never
// retire anything here. Returns true if a tracker entry was removed and
// the acknowledgment minimum may have risen.
func (s *Sender) reapJoiners(from NodeID, cum uint32) bool {
	if js, ok := s.joiners[from]; ok && cum >= js.base {
		s.stopJoiner(from)
	}
	mark, catching := s.treeCatch[from]
	if !catching || cum < mark {
		return false
	}
	// Past the handover mark nothing admitted before the splice can
	// still be in flight; the chain aggregate vouches for the joiner
	// from here on. A joiner that meanwhile became its chain's acting
	// head keeps the entry — it is now the chain's permanent one.
	delete(s.treeCatch, from)
	if nh, ok := s.tree.HeadAlive(s.tree.Chain(from), s.out); ok && nh == from {
		return false
	}
	s.acks.Remove(int(from))
	return true
}

// stopJoiner cancels a joiner's catch-up state.
func (s *Sender) stopJoiner(rank NodeID) {
	js, ok := s.joiners[rank]
	if !ok {
		return
	}
	js.gen++
	if js.timer != 0 {
		s.env.CancelTimer(js.timer)
		js.timer = 0
	}
	delete(s.joiners, rank)
}

func (s *Sender) stopAllJoiners() {
	for r := range s.joiners {
		s.stopJoiner(r)
	}
}

// onLeave grants a graceful departure, or re-answers a leaver whose
// TypeLeft announcement was lost.
func (s *Sender) onLeave(from NodeID) {
	if from < 1 || int(from) > s.cfg.NumReceivers || s.absent[from] {
		return
	}
	if s.dead[from] {
		// Already out of the membership: answer directly so the
		// retrying leaver can go quiet.
		s.env.Send(from, &packet.Packet{Type: packet.TypeLeft, MsgID: s.msgID, Aux: uint32(from)})
		return
	}
	s.depart(from, true, true)
	s.afterEject()
}

// --- receiver side ---------------------------------------------------

// Join starts the admission handshake for a receiver constructed
// absent: TypeJoinReq is retried until the sender's TypeJoinOK arrives.
func (r *Receiver) Join() {
	if r.present || r.joining || r.ejected || r.left {
		return
	}
	r.joining = true
	r.sendJoinReq()
}

func (r *Receiver) sendJoinReq() {
	if !r.joining || r.present {
		return
	}
	r.send(SenderID, packet.Packet{Type: packet.TypeJoinReq})
	r.joinGen++
	gen := r.joinGen
	r.env.SetTimer(r.cfg.AllocTimeout, func() {
		if gen != r.joinGen {
			return
		}
		r.sendJoinReq()
	})
}

// onJoinOK completes this receiver's admission: adopt the sender's
// membership view, and when a session is in flight, set up its buffer
// exactly as an allocation request would and start the catch-up
// watchdog for the snapshot prefix.
func (r *Receiver) onJoinOK(p *packet.Packet) {
	if r.present {
		return // duplicate answer to a retried request
	}
	r.present = true
	r.joining = false
	r.joinGen++
	// The membership changed while we were away; the payload lists the
	// ranks currently outside the group.
	for i := 0; i+2 <= len(p.Payload); i += 2 {
		rk := NodeID(binary.BigEndian.Uint16(p.Payload[i:]))
		if rk >= 1 && int(rk) <= r.cfg.NumReceivers && rk != r.rank {
			r.deadPeers[rk] = true
		}
	}
	if r.isTree {
		r.relink()
	}
	if p.Flags&packet.FlagActive == 0 {
		return // no session: wait for the next allocation request
	}
	r.beginSession(p.MsgID, int(p.Aux))
	r.joinBase = p.Seq
	r.liveMark = 0
	if r.isTree && r.pred != SenderID {
		// Spliced mid-chain: self-report to the sender until coverage
		// passes the handover mark (see maybeDirectAck). An acting head
		// already reports directly through the normal chain path.
		mark := p.Seq + uint32(r.cfg.WindowSize)
		if mark > r.count {
			mark = r.count
		}
		if mark > 0 {
			r.liveMark = mark
		}
	}
	// Confirm the buffer: during the allocation phase this completes
	// the sender's roll call; during the data phase it is ignored.
	r.send(SenderID, packet.Packet{Type: packet.TypeAllocOK, MsgID: r.msgID, Aux: p.Aux})
	r.armCatchup()
}

// armCatchup (re)starts the catch-up watchdog: while the snapshot
// prefix is incomplete, a silent stream is re-NAKed every
// RetransTimeout so total snapshot loss cannot wedge the join.
func (r *Receiver) armCatchup() {
	r.catchGen++
	if r.next >= r.joinBase {
		return
	}
	gen := r.catchGen
	r.env.SetTimer(r.cfg.RetransTimeout, func() {
		if gen != r.catchGen || !r.active || r.ejected || r.left {
			return
		}
		if r.next >= r.joinBase {
			return
		}
		r.stats.NaksSent++
		r.mx.CountNak()
		r.send(SenderID, packet.Packet{Type: packet.TypeNak, MsgID: r.msgID, Seq: r.next})
		r.armCatchup()
	})
}

// noteCatchupProgress runs on every accepted in-order packet: the
// moment the snapshot prefix completes, provoke the (pinned) window
// with a NAK so live flow resumes without waiting out a sender timeout.
func (r *Receiver) noteCatchupProgress() {
	if r.joinBase == 0 || r.next < r.joinBase {
		return
	}
	r.joinBase = 0
	r.catchGen++ // disarm the watchdog
	if r.next < r.count {
		r.maybeNak()
	}
}

// Leave starts a graceful departure: TypeLeave is retried until the
// sender's TypeLeft announcement comes back; participation continues
// meanwhile so nothing stalls on our outstanding state.
func (r *Receiver) Leave() {
	if !r.present || r.leaving || r.left || r.ejected {
		return
	}
	r.leaving = true
	r.sendLeave()
}

func (r *Receiver) sendLeave() {
	if !r.leaving || r.left || r.ejected {
		return
	}
	r.send(SenderID, packet.Packet{Type: packet.TypeLeave, MsgID: r.msgID})
	r.leaveGen++
	gen := r.leaveGen
	r.env.SetTimer(r.cfg.AllocTimeout, func() {
		if gen != r.leaveGen {
			return
		}
		r.sendLeave()
	})
}

// onJoined applies an admission announcement: the rank is back in the
// group, so chain views splice it back in.
func (r *Receiver) onJoined(rank NodeID) {
	if rank < 1 || int(rank) > r.cfg.NumReceivers || rank == r.rank {
		return // our own admission arrives via JoinOK
	}
	if !r.deadPeers[rank] {
		return
	}
	delete(r.deadPeers, rank)
	if r.isTree {
		r.relink()
	}
}

// onLeft applies a graceful-departure announcement: structurally
// identical to an ejection splice, but our own departure ends the
// leave handshake instead of marking us a ghost.
func (r *Receiver) onLeft(rank NodeID) {
	if rank < 1 || int(rank) > r.cfg.NumReceivers || r.deadPeers[rank] {
		return
	}
	if rank == r.rank {
		r.left = true
		r.leaving = false
		r.leaveGen++
		r.catchGen++
		r.snapGen++
		r.snapActive = false
		r.cancelNak()
		return
	}
	r.deadPeers[rank] = true
	if r.isTree {
		r.relink()
	}
}

// onSnapDel accepts a catch-up delegation: serve the joiner the prefix
// we provably hold in order, paced like the sender's own stream.
func (r *Receiver) onSnapDel(p *packet.Packet) {
	if !r.active || p.MsgID != r.msgID {
		return
	}
	to := NodeID(p.Aux)
	if to < 1 || int(to) > r.cfg.NumReceivers || to == r.rank {
		return
	}
	if r.snapActive {
		return // one delegation at a time; the sender re-delegates on repair
	}
	limit := p.Seq
	if limit > r.next {
		limit = r.next // only the in-order prefix is provably correct
	}
	if limit == 0 {
		return
	}
	r.snapActive = true
	r.snapTo = to
	r.snapNext = 0
	r.snapLimit = limit
	r.pumpDelegate()
}

// pumpDelegate streams one paced batch of delegated snapshots.
func (r *Receiver) pumpDelegate() {
	if !r.snapActive || r.ejected || r.left {
		r.snapActive = false
		return
	}
	for n := 0; r.snapNext < r.snapLimit && n < snapBatch; n++ {
		r.sendSnapFromBuf(r.snapTo, r.snapNext)
		r.snapNext++
	}
	if r.snapNext >= r.snapLimit {
		r.snapActive = false
		return
	}
	r.snapGen++
	gen := r.snapGen
	r.env.SetTimer(r.cfg.SuppressInterval, func() {
		if gen != r.snapGen {
			return
		}
		r.pumpDelegate()
	})
}

// sendSnapFromBuf unicasts one snapshot packet out of this receiver's
// assembled buffer, flags replayed like the original transmission.
func (r *Receiver) sendSnapFromBuf(to NodeID, seq uint32) {
	off := int(seq) * r.cfg.PacketSize
	end := off + r.cfg.PacketSize
	if end > len(r.buf) {
		end = len(r.buf)
	}
	var chunk []byte
	if off < len(r.buf) {
		chunk = r.buf[off:end]
	}
	var flags packet.Flags
	if seq == r.count-1 {
		flags |= packet.FlagLast
	}
	if r.cfg.Protocol == ProtoNAK && (int(seq+1)%r.cfg.PollInterval == 0 || seq == r.count-1) {
		flags |= packet.FlagPoll
	}
	r.send(to, packet.Packet{
		Type: packet.TypeSnap, Flags: flags, MsgID: r.msgID,
		Seq: seq, Aux: uint32(off), Payload: chunk,
	})
}
