package core

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"time"

	"rmcast/internal/metrics"
	"rmcast/internal/packet"
	"rmcast/internal/pool"
	"rmcast/internal/rng"
)

// ReceiverStats counts a receiver's protocol activity.
type ReceiverStats struct {
	DataReceived  uint64 // in-order data packets accepted
	Duplicates    uint64 // data packets below the expected sequence
	Gaps          uint64 // data packets above the expected sequence (dropped, Go-Back-N)
	AcksSent      uint64 // acknowledgments sent (to the sender or a tree predecessor)
	NaksSent      uint64 // NAKs sent
	NaksThrottled uint64 // NAK opportunities absorbed by rate limiting
	AcksRelayed   uint64 // tree only: successor acknowledgments processed
}

// Receiver is the receiver-side state machine for all four reliable
// protocols. The protocol differences are concentrated in ackOnAccept
// and ackOnDuplicate; everything else — allocation, in-order assembly,
// gap NAKs, delivery — is shared.
type Receiver struct {
	env       Env
	cfg       Config
	rank      NodeID
	onDeliver func(msg []byte)

	active bool
	msgID  uint32
	// buf is the message under assembly, len = message size. It is
	// msg.b, the bytes of the reference-counted buffer behind it (see
	// messageBuffer); the two are set and dropped together — except in
	// a verifying session, where buf is ref and msg is nil.
	buf []byte
	msg *Message
	// ref, when set (VerifyAgainst), is the message the sender sends. A
	// session of len(ref) bytes verifies: buf is ref, store compares each
	// payload with it instead of copying and counts the matches in
	// verified, until the first mismatch materialises the session into a
	// buffer of its own.
	ref        []byte
	verified   uint32
	count      uint32
	next       uint32 // next expected sequence
	have       []bool // selective repeat: per-packet receipt map
	delivered  bool
	lastNak    time.Duration
	lastDupAck time.Duration

	// Adaptive NAK pacing (Config.AdaptiveRTO): gapEst is an EWMA of
	// the inter-arrival time of accepted in-order data packets — the
	// receiver's only local proxy for how fast the sender's repair
	// pipeline can respond. The NAK throttle widens with it, so a slow
	// (paced, congested, or high-latency) session is not peppered with
	// NAKs the sender cannot act on any faster.
	gapEst   time.Duration
	lastData time.Duration
	haveData bool

	// Receiver-side NAK suppression state (Config.NakSuppression).
	nakTimer   TimerID
	nakGen     uint64
	nakPending bool
	rand       *rng.Rand

	// Selective repeat: sequences stored out of order whose
	// acknowledgment duty (poll flag, ring rotation slot) is still owed
	// and falls due when the in-order run passes them.
	owedAcks []uint32

	// Tree-protocol chain state.
	tree    FlatTree
	isTree  bool
	pred    NodeID
	succ    NodeID
	hasSucc bool
	succAck uint32 // cumulative ack received from the successor
	ackSent uint32 // cumulative ack last propagated to the predecessor

	// Membership state: ranks currently outside the group (ejected,
	// left, or not yet joined), as seen from here. A receiver that
	// learns of its own ejection goes quiet (it may have been declared
	// dead while merely stalled) but keeps assembling whatever it hears.
	deadPeers map[NodeID]bool
	ejected   bool

	// Dynamic membership: late-join and graceful-leave state.
	present  bool   // admitted member (false while Config.Absent and joining)
	joining  bool   // Join() handshake in flight
	leaving  bool   // Leave() handshake in flight
	left     bool   // departed gracefully; stay quiet
	joinBase uint32 // snapshot prefix boundary; 0 once caught up
	liveMark uint32 // tree: direct-ack the sender until next reaches this; 0 when inactive
	joinGen  uint64 // invalidates join-request retries
	leaveGen uint64 // invalidates leave-request retries
	catchGen uint64 // invalidates the catch-up watchdog

	// Peer-delegated snapshot service (Config.JoinCatchup == CatchupPeer).
	snapActive bool
	snapTo     NodeID
	snapNext   uint32
	snapLimit  uint32
	snapGen    uint64

	// out is the one packet every transmission of this receiver is built
	// in: Env.Send and Env.Multicast do not keep the pointer (see Env).
	out packet.Packet

	stats ReceiverStats
	mx    *metrics.Session // optional; nil-safe
}

// NewReceiver creates the receiver ranked rank (1..NumReceivers).
// onDeliver runs once per message with the fully assembled payload,
// which stays valid until the receiver's next session begins or Release
// is called — a caller that never calls Release may keep the last one.
// A caller that wants the payload past that calls Retain inside
// onDeliver and Releases the Message when done with it. A receiver
// given VerifyAgainst delivers the reference itself instead when every
// payload matched it.
func NewReceiver(env Env, cfg Config, rank NodeID, onDeliver func([]byte)) (*Receiver, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	if cfg.Protocol == ProtoRawUDP {
		return nil, fmt.Errorf("core: use NewRawReceiver for the raw UDP baseline")
	}
	if rank < 1 || int(rank) > cfg.NumReceivers {
		return nil, fmt.Errorf("core: rank %d out of range [1,%d]", rank, cfg.NumReceivers)
	}
	r := &Receiver{
		env:        env,
		cfg:        cfg,
		rank:       rank,
		onDeliver:  onDeliver,
		lastNak:    -time.Hour,
		lastDupAck: -time.Hour,
		rand:       rng.New(rng.Mix(uint64(rank), 0x4E414B)),
		deadPeers:  make(map[NodeID]bool),
		present:    !cfg.IsAbsent(rank),
	}
	// Other absent ranks start outside our chain view; the sender's
	// TypeJoined announcement splices them back in when they join.
	for _, a := range cfg.Absent {
		if a != rank {
			r.deadPeers[a] = true
		}
	}
	if cfg.Protocol == ProtoTree {
		r.tree = cfg.Tree()
		r.isTree = true
		r.pred = r.tree.PredAlive(rank, r.deadPeers)
		r.succ, r.hasSucc = r.tree.SuccAlive(rank, r.deadPeers)
	}
	return r, nil
}

// Stats returns a snapshot of the receiver counters.
func (r *Receiver) Stats() ReceiverStats { return r.stats }

// SetMetrics attaches a metrics session; NAKs this receiver sends are
// mirrored into it. A nil session disables mirroring.
func (r *Receiver) SetMetrics(m *metrics.Session) { r.mx = m }

// VerifyAgainst gives the receiver ref, the message its sender sends,
// read-only. Every later session of len(ref) bytes compares each
// payload with ref instead of copying it and holds no buffer while all
// of them match; onDeliver then gets ref itself, which it must not
// write to, and Retain panics. The first payload that differs moves
// the session into a buffer of its own (materialise), so onDeliver sees
// exactly the bytes a copying receiver would have assembled. Call it
// before the first session; ref must stay unchanged while the receiver
// runs.
func (r *Receiver) VerifyAgainst(ref []byte) { r.ref = ref }

// Delivered reports whether the current message has been delivered.
func (r *Receiver) Delivered() bool { return r.delivered }

// Ejected reports whether the sender has declared this receiver dead.
func (r *Receiver) Ejected() bool { return r.ejected }

// OnPacket dispatches an incoming packet.
func (r *Receiver) OnPacket(from NodeID, p *packet.Packet) {
	if !r.present {
		// Not (yet) a member: track membership announcements so the
		// chain view is current at admission, and accept our own
		// admission; everything else is not addressed to us.
		switch p.Type {
		case packet.TypeJoinOK:
			r.onJoinOK(p)
		case packet.TypeEject:
			r.onEject(NodeID(p.Aux))
		case packet.TypeJoined:
			r.onJoined(NodeID(p.Aux))
		case packet.TypeLeft:
			r.onLeft(NodeID(p.Aux))
		}
		return
	}
	switch p.Type {
	case packet.TypeAllocReq:
		r.onAllocReq(p)
	case packet.TypeData, packet.TypeSnap:
		// Snapshots replay the original data packets bit for bit, so
		// the data path handles both.
		r.onData(p)
	case packet.TypeAck:
		r.onSuccessorAck(from, p)
	case packet.TypeNak:
		// Only multicast NAKs from other receivers reach us, and only
		// under the receiver-side suppression scheme.
		if from != SenderID {
			r.onOverheardNak(p)
		}
	case packet.TypePing:
		// Liveness probe: answer with our cumulative progress, which
		// doubles as lost-acknowledgment repair at the sender. An
		// ejected or departed node stays quiet (send() enforces it).
		r.send(from, packet.Packet{Type: packet.TypePong, MsgID: p.MsgID, Seq: r.pongSeq(p.MsgID)})
	case packet.TypeEject:
		r.onEject(NodeID(p.Aux))
	case packet.TypeJoinOK:
		r.onJoinOK(p)
	case packet.TypeJoined:
		r.onJoined(NodeID(p.Aux))
	case packet.TypeLeft:
		r.onLeft(NodeID(p.Aux))
	case packet.TypeSnapDel:
		r.onSnapDel(p)
	}
}

// pongSeq is the progress a pong may honestly claim for msgID: exactly
// what this receiver's acknowledgment stream would carry, so the sender
// can treat a pong as a retransmitted cumulative ack. For a tree member
// that is the chain aggregate, not its own progress — an acting head
// answering a probe with its own (possibly complete) progress would
// mask a dead chain member at the sender's acknowledgment minimum and
// finish the session before the probe can eject it.
func (r *Receiver) pongSeq(msgID uint32) uint32 {
	if !r.active || r.msgID != msgID {
		return 0
	}
	agg := r.next
	if r.isTree && r.hasSucc && r.succAck < agg {
		agg = r.succAck
	}
	return agg
}

// onEject applies a membership change announced by the sender:
// membership is monotonic and outlives individual messages, so it is
// processed regardless of session state.
func (r *Receiver) onEject(rank NodeID) {
	if rank < 1 || int(rank) > r.cfg.NumReceivers || r.deadPeers[rank] {
		return
	}
	if rank == r.rank {
		// We were declared dead (crashed from the group's view, or
		// stalled long enough to be indistinguishable from it). Go
		// quiet so the spliced membership is not confused by a ghost.
		r.ejected = true
		r.cancelNak()
		return
	}
	r.deadPeers[rank] = true
	if r.isTree {
		r.relink()
	}
}

// relink recomputes this node's chain links over the surviving
// membership — the tree splice: the predecessor of an ejected node
// adopts its successor.
func (r *Receiver) relink() {
	oldPred, oldSucc, oldHas := r.pred, r.succ, r.hasSucc
	r.pred = r.tree.PredAlive(r.rank, r.deadPeers)
	r.succ, r.hasSucc = r.tree.SuccAlive(r.rank, r.deadPeers)
	if !r.active {
		return
	}
	if r.hasSucc != oldHas || r.succ != oldSucc {
		// Downstream changed: what we knew about the old successor's
		// progress no longer bounds the new one. Reset and wait for the
		// adopted successor to report (it will, because its predecessor
		// changed too).
		r.succAck = 0
	}
	if r.pred != oldPred {
		// The new predecessor (possibly the sender) has never heard
		// from us: forget what we last reported so our current
		// aggregate goes out and its view of the chain resumes where
		// the ejected node left it.
		r.ackSent = 0
	}
	// Becoming the tail (aggregate = own progress) or gaining a new
	// predecessor makes the aggregate reportable; otherwise this is a
	// no-op thanks to the monotonic ackSent guard.
	r.propagateTreeAck(false)
}

// onAllocReq handles phase 1 of the session: allocate the message buffer
// and confirm. Duplicate requests (the sender retransmits them until
// every confirmation arrives) are re-confirmed idempotently.
func (r *Receiver) onAllocReq(p *packet.Packet) {
	r.beginSession(p.MsgID, int(p.Aux))
	r.send(SenderID, packet.Packet{Type: packet.TypeAllocOK, MsgID: r.msgID, Aux: p.Aux})
}

// beginSession makes msgID the session under assembly — a zeroed
// size-byte buffer, or ref when the session verifies against it, and
// every piece of per-message state reset — unless it already is.
// Allocation requests and mid-session admissions (onJoinOK) both start
// here.
func (r *Receiver) beginSession(msgID uint32, size int) {
	if r.active && r.msgID == msgID {
		return
	}
	r.active = true
	r.msgID = msgID
	if r.ref != nil && size == len(r.ref) {
		r.dropMessage()
		r.buf = r.ref
	} else {
		r.buf = r.messageBuffer(size)
	}
	r.verified = 0
	r.count = r.cfg.PacketCount(size)
	r.next = 0
	r.delivered = false
	r.succAck = 0
	r.ackSent = 0
	r.nakPending = false
	r.nakGen++
	r.owedAcks = r.owedAcks[:0]
	if r.cfg.ARQ == ARQSelective {
		r.have = make([]bool, r.count)
	} else {
		r.have = nil
	}
	// A new session supersedes any catch-up or delegation state
	// from the previous one.
	r.joinBase = 0
	r.liveMark = 0
	r.catchGen++
	r.snapActive = false
	r.snapGen++
}

// Message is a receiver's message buffer, shared by reference count.
// The receiver holds one reference from the session that assembles it
// until the next session or Release; Retain adds one for a holder that
// keeps the delivered message longer (a live node's Recv queue). The
// last Release returns the buffer to the package free list. The count is
// atomic because a holder may release on another goroutine than the
// receiver's.
type Message struct {
	b    []byte
	refs atomic.Int32
}

// Bytes returns the message. It is read-only: the receiver serves
// peer snapshots out of it until its next session.
func (m *Message) Bytes() []byte { return m.b }

// Release drops one reference. The last one returns the buffer to the
// free list, after which neither Bytes nor the slice it returned may be
// used. Releasing more often than referenced panics.
func (m *Message) Release() {
	switch n := m.refs.Add(-1); {
	case n == 0:
		msgBufs.Put(m)
	case n < 0:
		panic("core: message released more often than retained")
	}
}

// msgBufs holds released message buffers, weighed by capacity, for the
// next session of any receiver in the process: a process-wide list
// because runs execute on several goroutines and a live node's holder
// may release on the application's. One list rather than size classes:
// every receiver of a run asks for the same size, so a buffer too small
// for the request at hand (taken and dropped) is rare, and rounding
// capacities up to a class allocated more than it saved on
// `rmbench -exp fig8 -quick` (426,502-byte messages; numbers in
// CHANGES.md, PR 20).
var msgBufs = pool.NewList(msgBufsCap, func(m *Message) int { return cap(m.b) })

// msgBufsCap bounds msgBufs' bytes. Only receivers that copy draw on
// the list — live nodes, cluster.Session's receivers and a verifying
// receiver that materialises — as a one-shot Run's receivers hold no
// buffer. The cap sits far above a live group's use (live_udp_bulk sends
// 4 MiB to 2 receivers), while a run whose thousands of receivers all
// copied (4 096 × 64 KiB is 256 MiB) does not pin its peak for the
// life of the process.
const msgBufsCap = 128 << 20

// FreeMessagesForTests reports what the message free list holds: its
// buffers and their capacity in bytes. It exists so that tests in other
// packages can check whether a run drew on or stocked the list; nothing
// else should call it.
func FreeMessagesForTests() (buffers, size int) {
	return msgBufs.Len(), msgBufs.Bytes()
}

// messageBuffer returns the size-byte, all-zero buffer of a new
// copying session, or of a verifying one at its first mismatch
// (materialise): this receiver's previous buffer when it is large enough and
// nobody retained it (a live node's receiver persists across messages),
// else the last released one from the free list, else a fresh
// allocation. A retained buffer stays its holders'; the receiver only
// drops its own reference. A recycled buffer is cleared: the test
// payload is a function of the byte index alone, so a packet slot the
// session never wrote would otherwise read as the previous message's
// bytes — and verify.
func (r *Receiver) messageBuffer(size int) []byte {
	if r.msg != nil && r.msg.refs.Load() != 1 {
		r.msg.Release()
		r.msg = nil
	}
	if r.msg == nil || cap(r.msg.b) < size {
		r.msg, _ = msgBufs.Get()
		if r.msg == nil || cap(r.msg.b) < size {
			r.msg = &Message{b: make([]byte, size)}
			r.msg.refs.Store(1)
			return r.msg.b
		}
		r.msg.refs.Store(1)
	}
	r.msg.b = r.msg.b[:size]
	clear(r.msg.b)
	return r.msg.b
}

// Retain adds a reference to the delivered message and returns it,
// for a caller that keeps the payload past the receiver's next session.
// Call it inside onDeliver (or before the next session begins); it
// panics when no message is delivered, or when the delivered message is
// VerifyAgainst's reference, which no Message holds.
func (r *Receiver) Retain() *Message {
	if r.msg == nil || !r.delivered {
		panic("core: Retain with no delivered message")
	}
	r.msg.refs.Add(1)
	return r.msg
}

// Release drops the receiver's reference to its message buffer — the
// last one returns it to the free list for the next session in the
// process —
// and deactivates the session, a verifying one that holds no buffer
// included: the payload onDeliver saw is invalid from here on unless
// retained (or it was the reference), and late packets are dropped
// until a new allocation request arrives. Releasing twice, or before
// any session, is a no-op; a receiver that is simply dropped leaves its
// buffer to the garbage collector.
func (r *Receiver) Release() {
	r.dropMessage()
	r.buf = nil
	r.active, r.snapActive = false, false
}

// dropMessage releases the receiver's reference to its message buffer,
// if it holds one.
func (r *Receiver) dropMessage() {
	if r.msg != nil {
		r.msg.Release()
		r.msg = nil
	}
}

func (r *Receiver) onData(p *packet.Packet) {
	if !r.active || p.MsgID != r.msgID {
		// Data for a session we never saw the allocation for: the
		// allocation retransmission will repair this; drop meanwhile.
		return
	}
	if p.Seq >= r.count {
		// No valid sender emits a sequence at or past the packet count.
		// Without this guard a corrupt sequence panics selective repeat:
		// once delivery completes next == count, so Seq == count passes
		// the == next test into accept, whose store indexes have[count]
		// out of range. (The offset check in store cannot catch it: a
		// zero-payload packet with Aux == len(buf) passes.)
		r.stats.Duplicates++
		return
	}
	switch {
	case p.Seq == r.next:
		r.accept(p)
	case p.Seq > r.next:
		r.stats.Gaps++
		if r.cfg.ARQ == ARQSelective && int(p.Seq) < len(r.have) && !r.have[p.Seq] {
			// Selective repeat: keep the out-of-order packet (writing
			// straight into the preallocated message buffer) and report
			// only the missing sequence.
			if r.store(p) && r.owesAckFor(p) {
				r.owedAcks = append(r.owedAcks, p.Seq)
			}
		}
		r.maybeNak()
	default:
		r.stats.Duplicates++
		r.ackOnDuplicate(p)
	}
}

// store writes p's payload into the message buffer, at the one place a
// packet of its sequence can go: offset Seq×PacketSize, PacketSize
// bytes long except for the message's last packet. That is the geometry
// sendData, sendSnap and sendSnapFromBuf produce; anything else is
// corrupt (v1 frames carry no checksum, and a live node hears whatever
// reaches its port) and is dropped like a lost packet, for
// retransmission to repair. The caller has checked Seq < count.
//
// A verifying session (msg nil, buf is ref) writes nothing while the
// payload equals the bytes already there; the first one that differs
// materialises the session, and the payload is written as any other.
func (r *Receiver) store(p *packet.Packet) bool {
	off := int(p.Seq) * r.cfg.PacketSize
	want := len(r.buf) - off
	if want > r.cfg.PacketSize {
		want = r.cfg.PacketSize
	}
	if int(p.Aux) != off || len(p.Payload) != want {
		return false
	}
	switch {
	case r.msg != nil:
		copy(r.buf[off:], p.Payload)
	case bytes.Equal(p.Payload, r.buf[off:off+want]):
		r.verified++
	default:
		r.materialise()
		copy(r.buf[off:], p.Payload)
	}
	if r.have != nil {
		r.have[p.Seq] = true
	}
	return true
}

// materialise ends a verifying session at its first mismatched
// payload: the session moves into a cleared buffer of its own holding
// ref's bytes for every packet stored so far — the in-order prefix and,
// under selective repeat, the packets held beyond it — and goes on as a
// copying session, ready for the mismatched payload. ref stands in only
// for packets store verified: when their count falls short of the
// packets stored, one was taken without being compared, and the buffer
// stays cleared rather than vouch for it.
func (r *Receiver) materialise() {
	ref, ps := r.ref, r.cfg.PacketSize
	r.buf = r.messageBuffer(len(ref))
	copy(r.buf, ref[:min(int(r.next)*ps, len(ref))])
	stored := r.next
	for s := int(r.next); s < len(r.have); s++ {
		if r.have[s] {
			off := s * ps
			copy(r.buf[off:], ref[off:min(off+ps, len(ref))])
			stored++
		}
	}
	if stored != r.verified {
		clear(r.buf)
	}
}

// delivery is the message onDeliver gets: the session's buffer, which
// is ref itself while the session verifies. ref goes out only when
// every packet was verified against it; a verifying session that
// reaches the end with fewer verified packets took one without
// comparing it, and delivers a cleared buffer instead, which fails any
// check against the message as the slot a copying receiver left
// unwritten would.
func (r *Receiver) delivery() []byte {
	if r.msg == nil && r.verified != r.count {
		r.buf = r.messageBuffer(len(r.ref))
	}
	return r.buf
}

// accept consumes the in-order packet p.
func (r *Receiver) accept(p *packet.Packet) {
	if !r.store(p) {
		return
	}
	r.next++
	// Selective repeat: packets buffered ahead extend the run.
	for r.have != nil && int(r.next) < len(r.have) && r.have[r.next] {
		r.next++
	}
	r.stats.DataReceived++
	if r.cfg.AdaptiveRTO {
		now := r.env.Now()
		if r.haveData {
			if gap := now - r.lastData; gap >= 0 {
				if r.gapEst == 0 {
					r.gapEst = gap
				} else {
					r.gapEst += (gap - r.gapEst) >> rttAlphaShift
				}
			}
		}
		r.haveData = true
		r.lastData = now
	}
	if r.nakPending && !r.missingAnything() {
		// The gap healed; withdraw the pending suppressed NAK.
		r.cancelNak()
	}
	r.ackOnAccept(p)
	r.noteCatchupProgress()
	r.settleOwedAcks()
	if r.next == r.count && !r.delivered {
		r.delivered = true
		if r.onDeliver != nil {
			r.onDeliver(r.delivery())
		}
	}
}

// owesAckFor reports whether packet p, were it received in order, would
// oblige this receiver to acknowledge (poll flag, ring rotation slot,
// last-packet rule). ACK-based and tree acks are cumulative per packet
// and need no deferred bookkeeping.
func (r *Receiver) owesAckFor(p *packet.Packet) bool {
	switch r.cfg.Protocol {
	case ProtoNAK:
		return p.Flags&packet.FlagPoll != 0
	case ProtoRing:
		return r.ringResponsible(p.Seq) || p.Flags&packet.FlagLast != 0
	default:
		return false
	}
}

// settleOwedAcks pays acknowledgment duties for out-of-order packets the
// in-order run has now covered. One cumulative ack covers all of them.
func (r *Receiver) settleOwedAcks() {
	if len(r.owedAcks) == 0 {
		return
	}
	due := false
	kept := r.owedAcks[:0]
	for _, seq := range r.owedAcks {
		if seq < r.next {
			due = true
		} else {
			kept = append(kept, seq)
		}
	}
	r.owedAcks = kept
	if due {
		r.sendAck(SenderID, r.next)
	}
}

// missingAnything reports whether a gap remains below the highest
// received sequence.
func (r *Receiver) missingAnything() bool {
	if r.have == nil {
		return false // Go-Back-N tracks only r.next
	}
	for s := int(r.next); s < len(r.have); s++ {
		if r.have[s] {
			return true // something beyond next arrived: next is a gap
		}
	}
	return false
}

// ackOnAccept implements each protocol's acknowledgment rule for a newly
// accepted in-order packet.
func (r *Receiver) ackOnAccept(p *packet.Packet) {
	switch r.cfg.Protocol {
	case ProtoACK:
		// Every receiver ACKs every packet: the ACK implosion source.
		r.sendAck(SenderID, r.next)
	case ProtoNAK:
		// Only polled packets are acknowledged.
		if p.Flags&packet.FlagPoll != 0 {
			r.sendAck(SenderID, r.next)
		}
	case ProtoRing:
		// Rotating responsibility: receiver k ACKs packets with
		// seq ≡ k-1 (mod N), cumulatively; the last packet is ACKed by
		// everyone (the paper's second LAN modification).
		if r.ringResponsible(p.Seq) || p.Flags&packet.FlagLast != 0 {
			r.sendAck(SenderID, r.next)
		}
	case ProtoTree:
		r.propagateTreeAck(false)
		r.maybeDirectAck()
	}
}

// maybeDirectAck reports a just-spliced tree joiner's progress straight
// to the sender. The joiner's chain head may have acknowledgments from
// before the splice still in flight — aggregates that reach the join
// base without covering the newcomer — so until this receiver's own
// coverage passes the handover mark (base + WindowSize, beyond anything
// in flight at admission) it vouches for itself; the sender tracks it
// directly over that window (Sender.spliceJoiner).
func (r *Receiver) maybeDirectAck() {
	if r.liveMark == 0 {
		return
	}
	if r.next >= r.liveMark {
		r.liveMark = 0
	}
	r.sendAck(SenderID, r.next)
}

// ackOnDuplicate re-acknowledges retransmitted packets so lost
// acknowledgments cannot stall the sender. Re-acks are cumulative, so
// one per NakInterval suffices no matter how large the retransmission
// burst was — without the limit a Go-Back-N burst provokes a burst of
// identical re-acks, which on a shared CSMA/CD segment feeds the very
// collision storm that caused the timeout.
func (r *Receiver) ackOnDuplicate(p *packet.Packet) {
	wantAck := false
	switch r.cfg.Protocol {
	case ProtoACK:
		wantAck = true
	case ProtoNAK:
		wantAck = p.Flags&packet.FlagPoll != 0
	case ProtoRing:
		wantAck = r.ringResponsible(p.Seq) || p.Flags&packet.FlagLast != 0
	case ProtoTree:
		// Re-propagate the current aggregate so a lost chain ACK is
		// repaired hop by hop on each retransmission round.
		wantAck = true
	}
	if !wantAck {
		return
	}
	now := r.env.Now()
	if now-r.lastDupAck < r.cfg.NakInterval {
		return
	}
	r.lastDupAck = now
	if r.cfg.Protocol == ProtoTree {
		r.propagateTreeAck(true)
		r.maybeDirectAck()
	} else {
		r.sendAck(SenderID, r.next)
	}
}

// ringResponsible reports whether this receiver's rotation slot covers
// sequence seq.
func (r *Receiver) ringResponsible(seq uint32) bool {
	return r.cfg.RingResponsible(r.rank, seq)
}

// onSuccessorAck handles the tree protocol's chain aggregation: a
// cumulative acknowledgment from our successor raises the aggregate we
// may report upstream.
func (r *Receiver) onSuccessorAck(from NodeID, p *packet.Packet) {
	if !r.isTree || !r.active || p.MsgID != r.msgID {
		return
	}
	if !r.hasSucc || from != r.succ {
		return // not from our successor; ignore
	}
	r.stats.AcksRelayed++
	if p.Seq > r.succAck {
		r.succAck = p.Seq
		r.propagateTreeAck(false)
	}
}

// propagateTreeAck sends min(own progress, successor aggregate) to the
// predecessor when it has grown — or unconditionally when force is set
// (duplicate-data repair).
func (r *Receiver) propagateTreeAck(force bool) {
	agg := r.next
	if r.hasSucc && r.succAck < agg {
		agg = r.succAck
	}
	if agg > r.ackSent || (force && agg > 0) {
		r.ackSent = agg
		r.sendAck(r.pred, agg)
	}
}

// nakThrottle is the minimum spacing between this receiver's NAKs: the
// configured NakInterval, widened under adaptive pacing to twice the
// smoothed data inter-arrival time (capped at 64× NakInterval) — one
// NAK per repair opportunity instead of one per NakInterval.
func (r *Receiver) nakThrottle() time.Duration {
	if !r.cfg.AdaptiveRTO || r.gapEst == 0 {
		return r.cfg.NakInterval
	}
	iv := 2 * r.gapEst
	if iv < r.cfg.NakInterval {
		return r.cfg.NakInterval
	}
	if lim := 64 * r.cfg.NakInterval; iv > lim {
		return lim
	}
	return iv
}

// maybeNak reports the gap at r.next: directly to the sender
// (rate-limited) by default, or via the randomized multicast
// suppression scheme when Config.NakSuppression is set.
func (r *Receiver) maybeNak() {
	if r.cfg.NakSuppression {
		r.scheduleSuppressedNak()
		return
	}
	now := r.env.Now()
	if now-r.lastNak < r.nakThrottle() {
		r.stats.NaksThrottled++
		return
	}
	r.lastNak = now
	r.stats.NaksSent++
	r.mx.CountNak()
	r.send(SenderID, packet.Packet{Type: packet.TypeNak, MsgID: r.msgID, Seq: r.next})
}

// scheduleSuppressedNak implements the Pingali-style scheme: wait a
// random fraction of NakInterval, then multicast the NAK — unless an
// overheard NAK covering our gap arrives first.
func (r *Receiver) scheduleSuppressedNak() {
	if r.nakPending {
		return
	}
	r.nakPending = true
	r.nakGen++
	gen := r.nakGen
	delay := time.Duration(r.rand.Float64() * float64(r.nakThrottle()))
	r.nakTimer = r.env.SetTimer(delay, func() {
		if gen != r.nakGen || !r.nakPending || r.ejected || r.left {
			return
		}
		r.nakPending = false
		r.lastNak = r.env.Now()
		r.stats.NaksSent++
		r.mx.CountNak()
		r.out = packet.Packet{Type: packet.TypeNak, MsgID: r.msgID, Seq: r.next}
		r.env.Multicast(&r.out)
	})
}

// cancelNak withdraws a pending suppressed NAK.
func (r *Receiver) cancelNak() {
	if !r.nakPending {
		return
	}
	r.nakPending = false
	r.nakGen++
	r.env.CancelTimer(r.nakTimer)
}

// onOverheardNak handles a multicast NAK from another receiver: if it
// covers our own gap, behave as if we had sent ours.
func (r *Receiver) onOverheardNak(p *packet.Packet) {
	if !r.cfg.NakSuppression || !r.active || p.MsgID != r.msgID {
		return
	}
	if r.nakPending && p.Seq <= r.next {
		r.stats.NaksThrottled++
		r.cancelNak()
		r.lastNak = r.env.Now()
	}
}

func (r *Receiver) sendAck(to NodeID, cum uint32) {
	r.stats.AcksSent++
	r.send(to, packet.Packet{Type: packet.TypeAck, MsgID: r.msgID, Seq: cum})
}

// send unicasts p from r.out, the receiver's one outbound packet.
func (r *Receiver) send(to NodeID, p packet.Packet) {
	if r.ejected || r.left {
		return // a ghost — ejected or departed — stays quiet
	}
	r.out = p
	r.env.Send(to, &r.out)
}
