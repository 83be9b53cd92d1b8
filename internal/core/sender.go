package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"rmcast/internal/metrics"
	"rmcast/internal/packet"
	"rmcast/internal/window"
)

// SenderStats counts the sender's protocol activity. The Table 2
// validation tests check these against the paper's analytic per-packet
// control costs.
type SenderStats struct {
	AllocSent       uint64 // allocation requests multicast
	DataSent        uint64 // first transmissions of data packets
	Retransmissions uint64 // data packets re-multicast
	AcksReceived    uint64 // acknowledgment packets processed
	NaksReceived    uint64 // NAK packets processed
	Timeouts        uint64 // retransmission-timer firings
	SuppressedNaks  uint64 // NAKs absorbed by the suppression interval
	ProbesSent      uint64 // liveness pings sent during failure detection
	Ejected         uint64 // receivers declared dead and ejected
}

type senderPhase int

const (
	phaseIdle senderPhase = iota
	phaseAlloc
	phaseData
	phaseDone
)

// Sender is the source-side state machine, shared by all four reliable
// protocols: the differences between ACK/NAK/ring/tree live in which
// packets carry the poll flag, which peers the cumulative-ack minimum
// tracks, and how the receivers respond — the sender's window, timer,
// and retransmission logic are identical, exactly as in the paper's
// implementation, which reuses the window-based flow control and
// sender-driven error control across protocols.
type Sender struct {
	env    Env
	cfg    Config
	onDone func()

	msg      []byte
	msgID    uint32
	count    uint32
	phase    senderPhase
	win      *window.Sender
	acks     *window.MinTracker
	allocOK  map[NodeID]bool
	tree     FlatTree
	isTree   bool
	timer    TimerID
	timerGen uint64
	// rtoMult implements exponential timeout backoff: consecutive
	// timeouts without progress double the effective timeout (capped),
	// so a congested or contended medium is not hammered with
	// Go-Back-N bursts — essential on shared CSMA/CD segments, where a
	// saturating sender starves the very acknowledgments it is waiting
	// for (the Ethernet capture effect).
	rtoMult time.Duration
	// lastRetrans implements retransmission suppression; set so far in
	// the past that the first retransmission is never suppressed.
	lastRetrans time.Duration
	// noProgress counts consecutive retransmission rounds that did not
	// advance the window base; the suppression interval doubles with it
	// (capped). Without this, a stream of NAKs from a slow receiver
	// keeps the sender blasting full windows every SuppressInterval —
	// each burst overflows the receiver's buffer again and the transfer
	// collapses, with the retransmission timer never firing (every
	// NAK-driven resend re-arms it) and so never backing off.
	noProgress      uint32
	lastRetransBase uint32
	// lastResent tracks per-packet resend times for selective repeat's
	// per-packet suppression. Entries below the window base are pruned
	// as the base advances.
	lastResent map[uint32]time.Duration
	// nextSendAt implements optional rate pacing of first transmissions.
	nextSendAt time.Duration
	paceTimer  TimerID
	paceGen    uint64

	// rto is the adaptive retransmission-timeout estimator
	// (Config.AdaptiveRTO); nil keeps the fixed-timeout policy. The
	// remaining fields implement Karn-compliant sampling: at most one
	// data sequence is "in flight" as a sample, and it is discarded the
	// moment that sequence is retransmitted (its acknowledgment would be
	// ambiguous). The allocation handshake contributes the first sample
	// — request out, last confirmation in — so the data phase starts
	// from a measured RTO instead of the configured initial.
	rto         *RTTEstimator
	sampleSeq   uint32
	sampleAt    time.Duration
	sampleLive  bool
	allocAt     time.Duration
	allocSample bool
	allocSends  int
	// allocWait is the period the alloc timer was last armed with, and
	// lastAllocOK the instant the newest first confirmation was read. A
	// retry is due only once allocWait passes with no new confirmation
	// (onTimeout), so a sender still reading one round of answers
	// does not multicast the next.
	allocWait   time.Duration
	lastAllocOK time.Duration

	// est is the estimator that round-trip samples feed. With
	// AdaptiveRTO it aliases rto; with rate control alone it is a
	// sampling-only estimator (the SRTT input to leader pacing) and the
	// timer policy stays fixed. nil disables sampling entirely.
	est *RTTEstimator
	// rc is the live AIMD controller (Config.Rate.Enabled); nil keeps
	// the fixed window.
	rc *rateState

	// Failure-detection state (Config.MaxRetries > 0). dead and failed
	// persist across messages: an ejected receiver stays out of the
	// membership for the sender's lifetime.
	dead   map[NodeID]bool
	failed []NodeID
	// Dynamic membership. absent holds ranks that have not joined yet
	// (Config.Absent minus later admissions); out is the union dead ∪
	// absent — the set excluded from chain splices and roll calls. left
	// lists graceful departures (disjoint from failed). joiners holds
	// per-joiner catch-up state while a late joiner is being brought up
	// to its join base.
	absent  map[NodeID]bool
	out     map[NodeID]bool
	left    []NodeID
	joiners map[NodeID]*joinerState
	// treeCatch maps a mid-chain tree joiner to its handover mark: the
	// joiner is tracked directly in the acknowledgment minimum (its chain
	// head's in-flight pre-splice aggregates cannot vouch for it) until
	// its own cumulative ack reaches the mark, past everything that could
	// have been in flight at admission.
	treeCatch  map[NodeID]uint32
	failRounds int // consecutive timeout rounds without window progress
	probing    bool
	suspects   map[NodeID]bool
	probeRound int
	probeTimer TimerID
	probeGen   uint64
	dlTimer    TimerID
	dlGen      uint64

	stats SenderStats
	mx    *metrics.Session // optional; nil-safe
}

// NewSender creates a sender over env. onDone runs once when every
// receiver has acknowledged the entire message. The config must already
// be normalized.
func NewSender(env Env, cfg Config, onDone func()) (*Sender, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	if cfg.Protocol == ProtoRawUDP {
		return nil, fmt.Errorf("core: use NewRawSender for the raw UDP baseline")
	}
	s := &Sender{
		env:         env,
		cfg:         cfg,
		onDone:      onDone,
		rtoMult:     1,
		lastRetrans: -time.Hour,
		lastResent:  make(map[uint32]time.Duration),
		dead:        make(map[NodeID]bool),
		absent:      make(map[NodeID]bool),
		out:         make(map[NodeID]bool),
		joiners:     make(map[NodeID]*joinerState),
		treeCatch:   make(map[NodeID]uint32),
	}
	for _, r := range cfg.Absent {
		s.absent[r] = true
		s.out[r] = true
	}
	if cfg.Protocol == ProtoTree {
		s.tree = cfg.Tree()
		s.isTree = true
	}
	if cfg.AdaptiveRTO {
		// The configured RetransTimeout doubles as the pre-sample
		// initial RTO. The jitter seed is fixed: one sender per session,
		// and determinism under equal configs is the point.
		s.rto = NewRTTEstimator(cfg.RetransTimeout, cfg.MinRTO, cfg.MaxRTO, 1)
		s.est = s.rto
	} else if cfg.Rate.Enabled {
		// Rate control needs the SRTT signal even under the fixed timer
		// policy; this estimator only ever feeds the pacer.
		s.est = NewRTTEstimator(cfg.RetransTimeout, DefaultMinRTO, DefaultMaxRTO, 1)
	}
	if cfg.Rate.Enabled {
		s.rc = newRateState(cfg.Rate)
	}
	// Message ids are seeded per session tag so concurrent sessions on
	// one fabric can never alias; tag 0 numbers messages 1, 2, ... as
	// before.
	s.msgID = cfg.SessionTag << 16
	return s, nil
}

// dataRTO returns the duration to arm a data retransmission timer with:
// the estimator's jittered, clamped, backed-off RTO when adaptive
// timers are on, else the caller's fixed-policy value (passed through
// verbatim so the legacy behavior — and the golden traces pinning it —
// cannot drift).
func (s *Sender) dataRTO(legacy time.Duration) time.Duration {
	if s.rto != nil {
		return s.rto.RTO()
	}
	return legacy
}

// allocRTO is dataRTO for the allocation handshake timer: before the
// first sample the estimator knows nothing the fixed AllocTimeout
// policy doesn't, so the legacy value stands until a sample exists.
func (s *Sender) allocRTO(legacy time.Duration) time.Duration {
	if s.rto != nil && s.rto.HasSample() {
		return s.rto.RTO()
	}
	return legacy
}

// observeRTT feeds one Karn-clean round-trip sample to the estimator
// and mirrors it into the metrics session.
func (s *Sender) observeRTT(d time.Duration) {
	s.est.Observe(d)
	s.mx.ObserveRTT(d, s.est.SRTT())
}

// srtt returns the smoothed round-trip estimate, or zero before the
// first sample (or when sampling is off entirely).
func (s *Sender) srtt() time.Duration {
	if s.est == nil || !s.est.HasSample() {
		return 0
	}
	return s.est.SRTT()
}

// resetBackoff clears the timeout backoff on session progress.
func (s *Sender) resetBackoff() {
	s.rtoMult = 1
	if s.rto != nil {
		s.rto.ResetBackoff()
	}
}

// Stats returns a snapshot of the sender counters.
func (s *Sender) Stats() SenderStats { return s.stats }

// SetMetrics attaches a metrics session; protocol events (retransmissions,
// ejections) are mirrored into it. A nil session disables mirroring.
func (s *Sender) SetMetrics(m *metrics.Session) { s.mx = m }

// Done reports whether the current message is fully acknowledged.
func (s *Sender) Done() bool { return s.phase == phaseDone }

// Config returns the normalized session configuration.
func (s *Sender) Config() Config { return s.cfg }

// Failed returns the receivers ejected from the membership so far, in
// ejection order. The slice is shared; callers must not mutate it.
func (s *Sender) Failed() []NodeID { return s.failed }

// Left returns the receivers that departed gracefully, in departure
// order. The slice is shared; callers must not mutate it.
func (s *Sender) Left() []NodeID { return s.left }

// NeverJoined returns the ranks still waiting to join, ascending.
func (s *Sender) NeverJoined() []NodeID {
	out := make([]NodeID, 0, len(s.absent))
	for r := range s.absent {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Alive reports whether rank is still part of the membership.
func (s *Sender) Alive(rank NodeID) bool { return !s.dead[rank] }

// Progress returns the acknowledged fraction of the current message in
// [0,1]: 0 before and during allocation, 1 when done. Fault injectors
// use it to trigger events at reproducible points of a transfer.
func (s *Sender) Progress() float64 {
	if s.phase == phaseDone {
		return 1
	}
	if s.win == nil || s.count == 0 || s.phase == phaseIdle || s.phase == phaseAlloc {
		return 0
	}
	return float64(s.win.Base) / float64(s.count)
}

// Leader returns the worst receiver — the lowest rank whose tracked
// cumulative acknowledgment holds the minimum (for the tree protocol,
// tracked entries are the acting chain heads). Ties break to the lowest
// rank so the choice is deterministic. Zero when no tracker is live
// (idle, done, or an empty membership).
func (s *Sender) Leader() NodeID {
	if s.acks == nil || s.acks.Peers() == 0 {
		return 0
	}
	min := s.acks.Min()
	for r := 1; r <= s.cfg.NumReceivers; r++ {
		if v, tracked := s.acks.Value(r); tracked && v == min {
			return NodeID(r)
		}
	}
	return 0
}

// RateWindow returns the effective send window: the AIMD congestion
// window when rate control is on, else the configured WindowSize.
func (s *Sender) RateWindow() int {
	if s.rc != nil {
		return s.rc.Window()
	}
	return s.cfg.WindowSize
}

// Start begins transferring msg. It panics if a transfer is already in
// progress (sessions are sequential, as in the paper's experiments).
func (s *Sender) Start(msg []byte) {
	if s.phase == phaseAlloc || s.phase == phaseData {
		panic("core: Sender.Start while a transfer is in progress")
	}
	s.msg = msg
	s.msgID++
	s.count = s.cfg.PacketCount(len(msg))
	s.win = window.NewSender(s.cfg.WindowSize, s.count)
	// The cumulative-ack minimum is tracked over the surviving chain
	// heads for the tree protocol and over every surviving receiver
	// otherwise (ejections persist across messages; not-yet-joined
	// ranks are excluded until their admission splices them in).
	var peers []int
	if s.isTree {
		for c := 0; c < s.tree.NumChains(); c++ {
			if h, ok := s.tree.HeadAlive(c, s.out); ok {
				peers = append(peers, int(h))
			}
		}
	} else {
		for r := 1; r <= s.cfg.NumReceivers; r++ {
			if !s.out[NodeID(r)] {
				peers = append(peers, r)
			}
		}
	}
	s.stopAllJoiners()
	s.treeCatch = make(map[NodeID]uint32)
	s.allocOK = make(map[NodeID]bool, s.cfg.NumReceivers)
	s.sampleLive = false
	s.allocSample = false
	s.allocSends = 0
	s.lastAllocOK = -time.Hour
	s.lastResent = make(map[uint32]time.Duration)
	s.nextSendAt = 0
	s.paceGen++
	s.paceTimer = 0
	s.noProgress = 0
	s.lastRetransBase = ^uint32(0)
	s.failRounds = 0
	s.endProbe()
	if len(peers) == 0 {
		// Every receiver is already dead: the transfer trivially
		// completes for the (empty) survivor set.
		s.acks = nil
		s.phase = phaseDone
		if s.onDone != nil {
			s.onDone()
		}
		return
	}
	s.acks = window.NewMinTracker(peers)
	s.phase = phaseAlloc
	s.armDeadline()
	s.sendAlloc()
}

// armDeadline starts the session deadline, if configured.
func (s *Sender) armDeadline() {
	s.dlGen++
	if s.cfg.SessionDeadline <= 0 {
		return
	}
	gen := s.dlGen
	s.dlTimer = s.env.SetTimer(s.cfg.SessionDeadline, func() {
		if gen != s.dlGen {
			return
		}
		s.dlTimer = 0
		s.onDeadline()
	})
}

// sendAlloc multicasts the buffer-allocation request (Figure 6, phase 1)
// and arms its retransmission timer.
func (s *Sender) sendAlloc() {
	s.stats.AllocSent++
	s.allocSends++
	if s.est != nil {
		// Karn's rule: only a request transmitted exactly once yields an
		// unambiguous round trip; any retransmission spoils the sample.
		if s.allocSends == 1 {
			s.allocAt = s.env.Now()
			s.allocSample = true
		} else {
			s.allocSample = false
		}
	}
	s.env.Multicast(&packet.Packet{
		Type:  packet.TypeAllocReq,
		MsgID: s.msgID,
		Aux:   uint32(len(s.msg)),
	})
	s.allocWait = s.allocRTO(s.cfg.AllocTimeout * s.rtoMult)
	s.armTimer(s.allocWait)
}

// OnPacket dispatches an incoming control packet.
func (s *Sender) OnPacket(from NodeID, p *packet.Packet) {
	// Membership requests are handled before the dead/session guards: a
	// joiner does not know the current message id, and a leaver whose
	// departure announcement was lost keeps retrying after it is
	// already marked dead and must be re-answered.
	switch p.Type {
	case packet.TypeJoinReq:
		s.onJoinReq(from)
		return
	case packet.TypeLeave:
		s.onLeave(from)
		return
	}
	if s.dead[from] {
		return // ejected peers no longer participate
	}
	if s.absent[from] {
		return // not-yet-joined peers only speak JoinReq
	}
	if p.MsgID != s.msgID {
		return // stale or future session
	}
	switch p.Type {
	case packet.TypeAllocOK:
		s.onAllocOK(from)
	case packet.TypeAck:
		s.onAck(from, p.Seq)
	case packet.TypeNak:
		s.onNak(from, p.Seq)
	case packet.TypePong:
		s.onPong(from, p.Seq)
	}
}

func (s *Sender) onAllocOK(from NodeID) {
	if s.phase != phaseAlloc {
		return // duplicate after the data phase began
	}
	if from < 1 || int(from) > s.cfg.NumReceivers {
		return
	}
	if s.allocOK[from] {
		return
	}
	s.allocOK[from] = true
	s.lastAllocOK = s.env.Now()
	s.failRounds = 0
	s.exonerate(from)
	s.maybeFinishAlloc()
}

// aliveReceivers counts the current membership: neither ejected/left
// nor still waiting to join.
func (s *Sender) aliveReceivers() int {
	return s.cfg.NumReceivers - len(s.out)
}

// maybeFinishAlloc enters the data phase once every surviving receiver
// has confirmed a buffer. The alloc timer is cancelled so it cannot
// fire as a spurious data timeout.
func (s *Sender) maybeFinishAlloc() {
	// Each confirmation is counted once in allocOK, so fewer entries
	// than survivors settles it without the O(receivers) walk below.
	if s.phase != phaseAlloc || len(s.allocOK) < s.aliveReceivers() {
		return
	}
	confirmed := 0
	for r := range s.allocOK {
		if !s.dead[r] {
			confirmed++
		}
	}
	if confirmed < s.aliveReceivers() {
		return
	}
	if s.allocSample {
		// Request out → last confirmation in: the round trip to the
		// slowest receiver, which is exactly what a multicast
		// retransmission timer must cover.
		s.allocSample = false
		s.observeRTT(s.env.Now() - s.allocAt)
	}
	// The roll call is complete: the data phase starts at multiplier 1
	// whatever the handshake's retries built up.
	s.resetBackoff()
	s.phase = phaseData
	s.cancelTimer()
	s.pump()
}

func (s *Sender) onAck(from NodeID, cum uint32) {
	if s.phase != phaseData {
		return
	}
	s.stats.AcksReceived++
	// Raise the acker's entry first, then retire any catch-up state this
	// acknowledgment proves complete: reaping may remove the acker's own
	// direct entry, and both steps can move the minimum.
	changed := s.acks.Update(int(from), cum)
	if s.reapJoiners(from, cum) {
		changed = true
	}
	if !changed {
		return
	}
	prevBase := s.win.Base
	if s.win.Ack(s.acks.Min()) {
		if s.rc != nil {
			s.rc.OnAdvance(s.win.Base - prevBase)
		}
		if s.sampleLive && s.win.Base > s.sampleSeq {
			// The cumulative minimum moved past the sampled sequence:
			// every receiver has acknowledged the once-transmitted packet,
			// closing one clean slowest-receiver round trip.
			s.sampleLive = false
			s.observeRTT(s.env.Now() - s.sampleAt)
		}
		if s.win.Done() {
			s.finish()
			return
		}
		// Progress: reset the timeout backoff and the retransmission
		// timer, prune stale selective-repeat bookkeeping, and refill
		// the window.
		s.resetBackoff()
		s.noProgress = 0
		s.failRounds = 0
		for seq := range s.lastResent {
			if seq < s.win.Base {
				delete(s.lastResent, seq)
			}
		}
		s.armTimer(s.dataRTO(s.cfg.RetransTimeout))
		s.pump()
	}
}

func (s *Sender) onNak(from NodeID, seq uint32) {
	s.stats.NaksReceived++
	if s.phase != phaseData {
		return
	}
	if js, ok := s.joiners[from]; ok && seq < js.base {
		// A catching-up joiner is missing part of its snapshot; repair
		// it from here (even under peer delegation — the fallback keeps
		// a dead or lossy delegate from wedging the join).
		s.repairSnap(from, js, seq)
		return
	}
	if seq < s.win.Base || seq >= s.win.Next {
		return // already acknowledged everywhere, or never sent
	}
	if s.rc != nil {
		// A NAK for an outstanding packet is this round's loss signal.
		s.rc.OnLoss(s.win.Base, s.win.Next)
	}
	if s.cfg.ARQ == ARQSelective {
		// Resend exactly the missing packet, with per-packet suppression
		// so a burst of NAKs for one loss triggers one resend.
		now := s.env.Now()
		if last, ok := s.lastResent[seq]; ok && now-last < s.cfg.SuppressInterval {
			s.stats.SuppressedNaks++
			return
		}
		s.lastResent[seq] = now
		s.sendData(seq, true)
		return
	}
	// Go-Back-N: a NAK for anything outstanding triggers a full-window
	// retransmission (cumulative semantics), subject to suppression.
	s.retransmit()
}

// pump transmits new packets while the window (and, if configured, the
// rate controller and pacer) allow.
func (s *Sender) pump() {
	for s.win.CanSend() {
		if s.rc != nil && s.win.Outstanding() >= s.rc.Window() {
			// The congestion window is full; acknowledgments (or a
			// timeout) resume the pump.
			break
		}
		if gap := s.paceGap(); gap > 0 {
			now := s.env.Now()
			if now < s.nextSendAt {
				s.schedulePump(s.nextSendAt - now)
				break
			}
			s.nextSendAt = now + gap
		}
		seq := s.win.Sent()
		s.sendData(seq, false)
	}
	if s.win.Outstanding() > 0 && s.timer == 0 {
		s.armTimer(s.dataRTO(s.cfg.RetransTimeout))
	}
}

// paceGap returns the inter-packet gap for first transmissions: the
// larger of the configured fixed pace and the leader-driven SRTT/cwnd
// gap (worst-receiver pacing). Zero disables pacing.
func (s *Sender) paceGap() time.Duration {
	gap := s.cfg.PaceInterval
	if s.rc != nil {
		if g := s.rc.PaceGap(s.srtt()); g > gap {
			gap = g
		}
	}
	return gap
}

// schedulePump resumes pump after the pacing gap.
func (s *Sender) schedulePump(d time.Duration) {
	if s.paceTimer != 0 {
		return // already scheduled
	}
	s.paceGen++
	gen := s.paceGen
	s.paceTimer = s.env.SetTimer(d, func() {
		if gen != s.paceGen {
			return
		}
		s.paceTimer = 0
		if s.phase == phaseData {
			s.pump()
		}
	})
}

// sendData multicasts packet seq. retrans marks Go-Back-N resends, which
// skip the user copy (the protocol buffer already holds the bytes).
func (s *Sender) sendData(seq uint32, retrans bool) {
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
	if s.est != nil {
		if retrans {
			if s.sampleLive && seq == s.sampleSeq {
				// Karn's rule: the sampled packet was retransmitted, so
				// any acknowledgment covering it is ambiguous.
				s.sampleLive = false
			}
		} else if !s.sampleLive {
			s.sampleLive = true
			s.sampleSeq = seq
			s.sampleAt = s.env.Now()
		}
	}
	if !retrans {
		if !s.cfg.NoUserCopy {
			// Copy from the user message into the protocol buffer. This
			// is the copy Figure 9 isolates; retransmissions reuse the
			// protocol buffer and never pay it again.
			s.env.UserCopy(len(chunk))
		}
		s.stats.DataSent++
	} else {
		s.stats.Retransmissions++
		s.mx.CountRetransmission()
	}
	s.env.Multicast(&packet.Packet{
		Type:    packet.TypeData,
		Flags:   flags,
		MsgID:   s.msgID,
		Seq:     seq,
		Aux:     uint32(off),
		Payload: chunk,
	})
}

// retransmit performs one suppressed resend. Under Go-Back-N the whole
// outstanding window goes out. Under selective repeat the first timeout
// resends only the window base (NAKs cover data losses precisely), but
// repeated timeouts without progress escalate to a full-window resend:
// a lost *acknowledgment* stalls the window without any receiver owing
// a NAK, and only re-offering the packets each receiver is responsible
// for (ring rotation slots, polled packets) provokes the missing
// cumulative acks again.
func (s *Sender) retransmit() {
	now := s.env.Now()
	suppress := s.cfg.SuppressInterval << s.noProgress
	if now-s.lastRetrans < suppress {
		s.stats.SuppressedNaks++
		return
	}
	if s.win.Base == s.lastRetransBase {
		if s.noProgress < 6 {
			s.noProgress++
		}
	} else {
		s.noProgress = 0
	}
	s.lastRetransBase = s.win.Base
	s.lastRetrans = now
	firstTimeout := s.rtoMult <= 2
	if s.cfg.ARQ == ARQSelective && firstTimeout {
		if s.win.Outstanding() > 0 {
			s.lastResent[s.win.Base] = now
			s.sendData(s.win.Base, true)
		}
	} else {
		for seq := s.win.Base; seq < s.win.Next; seq++ {
			s.sendData(seq, true)
		}
	}
	s.armTimer(s.dataRTO(s.cfg.RetransTimeout * s.rtoMult))
}

func (s *Sender) finish() {
	s.phase = phaseDone
	s.cancelTimer()
	s.endProbe()
	s.stopAllJoiners()
	if s.dlTimer != 0 {
		s.env.CancelTimer(s.dlTimer)
		s.dlTimer = 0
	}
	s.dlGen++
	if s.onDone != nil {
		s.onDone()
	}
}

// armTimer (re)sets the single sender timer. Generation counters guard
// against firings that were already queued when the timer was reset.
func (s *Sender) armTimer(d time.Duration) {
	s.cancelTimer()
	s.timerGen++
	gen := s.timerGen
	s.timer = s.env.SetTimer(d, func() {
		if gen != s.timerGen {
			return
		}
		s.timer = 0
		s.onTimeout()
	})
}

func (s *Sender) cancelTimer() {
	if s.timer != 0 {
		s.env.CancelTimer(s.timer)
		s.timer = 0
	}
	s.timerGen++
}

func (s *Sender) onTimeout() {
	if s.phase == phaseAlloc {
		if rest := s.lastAllocOK + s.allocWait - s.env.Now(); rest > 0 {
			// A confirmation arrived since the timer was armed: the
			// sender is still reading this round, so wait out the rest
			// of a full period after the newest one instead of retrying.
			s.armTimer(rest)
			return
		}
	}
	s.stats.Timeouts++
	if s.rtoMult < 64 {
		s.rtoMult *= 2
	}
	if s.rto != nil {
		s.rto.Backoff()
	}
	s.noteNoProgress()
	switch s.phase {
	case phaseAlloc:
		s.sendAlloc()
	case phaseData:
		if s.isTree {
			s.reannounce()
		}
		if s.rc != nil {
			// A retransmission timeout is a loss round even when no NAK
			// arrived (e.g. every acknowledgment was lost).
			s.rc.OnLoss(s.win.Base, s.win.Next)
		}
		s.retransmit()
		if s.timer == 0 {
			// retransmit was suppressed; keep the timer alive.
			s.armTimer(s.dataRTO(s.cfg.RetransTimeout * s.rtoMult))
		}
	}
}

// --- receiver-failure detection -------------------------------------
//
// The paper's protocols free a buffer only when every receiver has
// acknowledged it, so one crashed receiver pins the window minimum and
// the sender retransmits forever. With Config.MaxRetries > 0 the sender
// treats MaxRetries consecutive timeout rounds without window progress
// as suspicion, identifies the peers holding the minimum (for the tree
// protocol: every member of a stalled chain, since a mid-chain death
// stalls its head's aggregate), and probes them with unicast pings. A
// suspect that answers within ProbeRounds rounds is exonerated — its
// pong carries its cumulative progress and doubles as lost-ack repair;
// one that stays silent is ejected: removed from the acknowledgment
// minimum, rotated out of scheduling, spliced out of its tree chain
// (announced to the group so the predecessor adopts the successor), and
// reported in Failed.

// noteNoProgress advances the suspicion counter on a timeout round and
// opens a probe once it crosses MaxRetries.
func (s *Sender) noteNoProgress() {
	if s.cfg.MaxRetries <= 0 || s.probing {
		return
	}
	s.failRounds++
	if s.failRounds < s.cfg.MaxRetries {
		return
	}
	s.beginProbe(s.currentSuspects())
}

// currentSuspects returns the peers that could be responsible for the
// current stall, sorted for deterministic probing.
func (s *Sender) currentSuspects() []NodeID {
	var out []NodeID
	switch s.phase {
	case phaseAlloc:
		// Whoever has not confirmed a buffer is suspect (absent ranks
		// owe nothing yet).
		for r := 1; r <= s.cfg.NumReceivers; r++ {
			id := NodeID(r)
			if !s.out[id] && !s.allocOK[id] {
				out = append(out, id)
			}
		}
	case phaseData:
		// The peers holding the acknowledgment minimum block the window.
		min := s.acks.Min()
		for r := 1; r <= s.cfg.NumReceivers; r++ {
			id := NodeID(r)
			if s.dead[id] {
				continue
			}
			if v, tracked := s.acks.Value(int(id)); tracked && v == min {
				if s.isTree {
					// A stalled head aggregate implicates its whole
					// chain: any member may be the dead one.
					for _, m := range s.tree.Members(s.tree.Chain(id)) {
						if !s.out[m] {
							out = append(out, m)
						}
					}
				} else {
					out = append(out, id)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// beginProbe starts pinging the suspects.
func (s *Sender) beginProbe(suspects []NodeID) {
	if s.probing || len(suspects) == 0 {
		return
	}
	s.probing = true
	s.probeRound = 0
	s.suspects = make(map[NodeID]bool, len(suspects))
	for _, r := range suspects {
		s.suspects[r] = true
	}
	s.sendProbes()
}

func (s *Sender) sendProbes() {
	for _, r := range s.sortedSuspects() {
		s.stats.ProbesSent++
		s.env.Send(r, &packet.Packet{Type: packet.TypePing, MsgID: s.msgID})
	}
	s.probeGen++
	gen := s.probeGen
	s.probeTimer = s.env.SetTimer(s.dataRTO(s.cfg.RetransTimeout), func() {
		if gen != s.probeGen {
			return
		}
		s.probeTimer = 0
		s.onProbeTimeout()
	})
}

func (s *Sender) sortedSuspects() []NodeID {
	out := make([]NodeID, 0, len(s.suspects))
	for r := range s.suspects {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// exonerate clears a suspect that proved itself alive.
func (s *Sender) exonerate(from NodeID) {
	if !s.probing || !s.suspects[from] {
		return
	}
	delete(s.suspects, from)
	if len(s.suspects) == 0 {
		// Everyone answered: the stall was slowness or loss, not death.
		s.endProbe()
	}
}

// reannounce repeats the departures of each stalled tree chain's
// members to that chain's survivors, one unicast per departure and
// survivor. An ejection or leave is multicast once; a member that lost
// its copy keeps waiting on the departed neighbour's aggregate, and a
// retransmission cannot tell it (it answers data and probes alike), so
// every data timeout repeats what the stalled chains may have missed.
// Receivers ignore a departure they already know.
func (s *Sender) reannounce() {
	if len(s.dead) == 0 {
		return
	}
	min := s.acks.Min()
	done := make([]bool, s.tree.NumChains())
	for r := 1; r <= s.cfg.NumReceivers; r++ {
		if v, tracked := s.acks.Value(r); !tracked || v != min {
			continue
		}
		c := s.tree.Chain(NodeID(r))
		if done[c] {
			continue
		}
		done[c] = true
		members := s.tree.Members(c)
		for _, gone := range members {
			if !s.dead[gone] {
				continue
			}
			t := packet.TypeEject
			if slices.Contains(s.left, gone) {
				t = packet.TypeLeft
			}
			for _, m := range members {
				if !s.out[m] {
					s.env.Send(m, &packet.Packet{Type: t, MsgID: s.msgID, Aux: uint32(gone)})
				}
			}
		}
	}
}

// endProbe abandons a probe in flight (all suspects exonerated, session
// finished, or a new Start).
func (s *Sender) endProbe() {
	s.probing = false
	s.failRounds = 0
	s.suspects = nil
	if s.probeTimer != 0 {
		s.env.CancelTimer(s.probeTimer)
		s.probeTimer = 0
	}
	s.probeGen++
}

func (s *Sender) onProbeTimeout() {
	if !s.probing {
		return
	}
	if len(s.suspects) == 0 {
		s.endProbe()
		return
	}
	s.probeRound++
	if s.probeRound < ProbeRounds {
		s.sendProbes()
		return
	}
	// The remaining suspects never answered: eject them.
	silent := s.sortedSuspects()
	s.endProbe()
	for _, r := range silent {
		s.eject(r, true)
	}
	s.afterEject()
}

// onPong handles a probe answer: the peer is alive, and its reported
// progress doubles as a (possibly lost) cumulative acknowledgment.
func (s *Sender) onPong(from NodeID, cum uint32) {
	s.exonerate(from)
	if s.phase == phaseData {
		s.onAck(from, cum)
	}
}

// DeclareDead ejects rank from the membership on external evidence —
// the live transport's hello-heartbeat expiry, an operator decision —
// bypassing the probe exchange. Safe to call in any phase; a no-op for
// already-ejected or out-of-range ranks.
func (s *Sender) DeclareDead(rank NodeID) {
	if rank < 1 || int(rank) > s.cfg.NumReceivers || s.dead[rank] || s.absent[rank] {
		// Silence from a rank that never joined is expected, not death.
		return
	}
	s.eject(rank, true)
	s.afterEject()
}

// eject removes rank from every structure that waits on it: the
// acknowledgment minimum (directly, or via its chain head for the tree
// protocol), the allocation roll call, and — when announce is set — the
// group's view of the membership, so tree receivers splice their chains
// around it (predecessor adopts successor).
func (s *Sender) eject(rank NodeID, announce bool) {
	s.depart(rank, announce, false)
}

// depart removes rank from the membership, either as a failure
// (graceful=false: counted and announced as an ejection) or as a
// graceful leave (graceful=true: recorded in left, announced as
// TypeLeft, and not counted against the session). The structural
// splice — acknowledgment minimum, tree chain handover — is identical.
func (s *Sender) depart(rank NodeID, announce, graceful bool) {
	if rank < 1 || int(rank) > s.cfg.NumReceivers || s.dead[rank] || s.absent[rank] {
		return
	}
	s.dead[rank] = true
	s.out[rank] = true
	if graceful {
		s.left = append(s.left, rank)
	} else {
		s.failed = append(s.failed, rank)
		s.stats.Ejected++
		s.mx.CountEjection()
	}
	s.stopJoiner(rank)
	if s.probing {
		delete(s.suspects, rank)
	}
	if announce {
		t := packet.TypeEject
		if graceful {
			t = packet.TypeLeft
		}
		s.env.Multicast(&packet.Packet{Type: t, MsgID: s.msgID, Aux: uint32(rank)})
	}
	if s.acks == nil {
		return
	}
	if s.isTree {
		if _, catching := s.treeCatch[rank]; catching {
			// A mid-catch-up joiner's direct entry vouches only for
			// itself; dropping it leaves the chain's own entry intact.
			delete(s.treeCatch, rank)
			s.acks.Remove(int(rank))
		} else if v, tracked := s.acks.Value(int(rank)); tracked {
			// Only an acting chain head is tracked. If rank was one, the
			// next surviving member inherits the acknowledgment stream,
			// seeded with the head's last reported aggregate (a lower bound
			// on every surviving member's progress, so monotonicity holds).
			s.acks.Remove(int(rank))
			if nh, ok := s.tree.HeadAlive(s.tree.Chain(rank), s.out); ok {
				if _, direct := s.treeCatch[nh]; direct {
					// The new acting head is a joiner already tracked
					// directly at a value no higher than v; its entry
					// simply becomes the chain's permanent one.
					delete(s.treeCatch, nh)
				} else {
					s.acks.Add(int(nh), v)
				}
			}
		}
	} else {
		s.acks.Remove(int(rank))
	}
}

// afterEject resumes the session around the new membership: the alloc
// roll call may now be complete, the window minimum may have jumped, and
// survivors owe acknowledgments that only a retransmission round will
// provoke again.
func (s *Sender) afterEject() {
	switch s.phase {
	case phaseAlloc:
		if s.acks.Peers() == 0 || s.aliveReceivers() == 0 {
			s.finish()
			return
		}
		s.maybeFinishAlloc()
		if s.phase == phaseData {
			return
		}
		// Still waiting on someone: restart the handshake without the
		// accumulated backoff.
		s.resetBackoff()
		s.sendAlloc()
	case phaseData:
		if s.acks.Peers() == 0 {
			s.finish()
			return
		}
		if s.win.Ack(s.acks.Min()) && s.win.Done() {
			s.finish()
			return
		}
		// Re-offer the outstanding window immediately (bypassing the
		// suppression interval: this is a membership change, not a NAK
		// burst) so survivors re-acknowledge and the transfer resumes.
		s.resetBackoff()
		s.noProgress = 0
		s.lastRetrans = s.env.Now()
		s.lastRetransBase = s.win.Base
		for seq := s.win.Base; seq < s.win.Next; seq++ {
			s.sendData(seq, true)
		}
		s.pump()
		s.armTimer(s.dataRTO(s.cfg.RetransTimeout))
	}
}

// onDeadline terminates the session at Config.SessionDeadline: every
// receiver the sender cannot prove complete is marked failed (without
// the eject announcement — the session is over) and the transfer ends
// with whatever the survivors hold.
func (s *Sender) onDeadline() {
	if s.phase == phaseIdle || s.phase == phaseDone {
		return
	}
	for r := 1; r <= s.cfg.NumReceivers; r++ {
		id := NodeID(r)
		if s.out[id] || s.peerComplete(id) {
			// Departed ranks are already accounted for; ranks that
			// never joined were never owed the message.
			continue
		}
		s.dead[id] = true
		s.out[id] = true
		s.failed = append(s.failed, id)
		s.stats.Ejected++
		s.mx.CountEjection()
	}
	s.finish()
}

// peerComplete reports whether the sender can prove rank has
// acknowledged the whole message.
func (s *Sender) peerComplete(rank NodeID) bool {
	if s.phase != phaseData || s.acks == nil {
		return false
	}
	tracked := rank
	if s.isTree {
		if _, direct := s.treeCatch[rank]; !direct {
			// A chain member is proven complete only through its acting
			// head's aggregate; a mid-catch-up joiner vouches for itself
			// via its direct entry.
			h, ok := s.tree.HeadAlive(s.tree.Chain(rank), s.out)
			if !ok {
				return false
			}
			tracked = h
		}
	}
	v, ok := s.acks.Value(int(tracked))
	return ok && v >= s.count
}
