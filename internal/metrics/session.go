package metrics

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"rmcast/internal/packet"
)

// numTypes sizes the per-packet-type counter arrays.
const numTypes = int(packet.TypeLeft) + 1

// Session aggregates the instruments of one multicast session (one
// cluster.Run, or the lifetime of a live node). All update methods are
// nil-safe and concurrency-safe, so both the single-threaded simulator
// and the live transport's goroutines can share the code paths that
// update them.
//
// Counter semantics, relative to the paper's analysis:
//
//   - sent/received per type expose the control-traffic asymmetry
//     behind ACK implosion (Section 5.1): an ACK protocol's received
//     ack count grows as receivers × window advances, all of it
//     serialized on the sender's CPU.
//   - Retransmissions separate the repair cost of the protocols.
//   - BufferOverflowDrops counts datagrams lost to full receive
//     buffers — the paper's dominant loss cause on a LAN, as opposed
//     to link-level corruption.
//   - SenderBusy is the sender host's serial CPU occupancy, the
//     quantity that saturates first under ACK implosion.
//   - SendErrors and RecvQEvictions are the live transport's own
//     losses: datagrams the socket refused to send, and delivered
//     messages dropped because the application did not consume them.
//   - Completion is each receiver's time-to-full-message, the
//     distribution behind the per-receiver latency figures.
type Session struct {
	reg *Registry

	sent     [numTypes]*Counter
	received [numTypes]*Counter

	retransmissions *Counter
	naksSent        *Counter
	ejections       *Counter
	overflowDrops   *Counter
	sendErrors      *Counter
	recvQEvictions  *Counter
	senderBusy      *Gauge // nanoseconds
	srtt            *Gauge // nanoseconds

	wireFrames       *Counter
	wireBytes        *Counter
	wireRawBytes     *Counter
	corruptFrames    *Counter
	compressedFrames *Counter
	carrierFrames    *Counter
	coalescedPackets *Counter

	completion *Histogram
	rtt        *Histogram

	mu      sync.Mutex
	perRecv map[int]time.Duration // made at the first completion
}

// Instrument counts of a Session: a sent and a received counter per
// packet type plus the named scalars NewSession registers.
const (
	numCounters = 2*numTypes + 13
	numGauges   = 2
	numHists    = 2
)

// sendNames and recvNames are the per-packet-type counter names, built
// once for every session.
var sendNames, recvNames = typeNames("send."), typeNames("recv.")

func typeNames(prefix string) (names [numTypes]string) {
	for t := range names {
		names[t] = prefix + packet.Type(t).String()
	}
	return names
}

// sessionBlock is everything a session owns, laid out as one
// allocation: the session, its registry, the instruments and the
// registry's exact-size registration slices.
type sessionBlock struct {
	s        Session
	reg      Registry
	counters [numCounters]Counter
	gauges   [numGauges]Gauge
	hists    [numHists]Histogram
	cnames   [numCounters]namedInstrument[*Counter]
	gnames   [numGauges]namedInstrument[*Gauge]
	hnames   [numHists]namedInstrument[*Histogram]
}

// NewSession creates a session with every instrument registered in a
// fresh registry, in one allocation.
func NewSession() *Session {
	b := new(sessionBlock)
	s, r := &b.s, &b.reg
	s.reg = r
	r.counters, r.gauges, r.hists = b.cnames[:0], b.gnames[:0], b.hnames[:0]
	counter := func(name string) *Counter {
		c := &b.counters[len(r.counters)]
		r.counters = append(r.counters, namedInstrument[*Counter]{name, c})
		return c
	}
	gauge := func(name string) *Gauge {
		g := &b.gauges[len(r.gauges)]
		r.gauges = append(r.gauges, namedInstrument[*Gauge]{name, g})
		return g
	}
	hist := func(name string) *Histogram {
		h := &b.hists[len(r.hists)]
		r.hists = append(r.hists, namedInstrument[*Histogram]{name, h})
		return h
	}
	for t := 0; t < numTypes; t++ {
		s.sent[t] = counter(sendNames[t])
		s.received[t] = counter(recvNames[t])
	}
	s.retransmissions = counter("retransmissions")
	s.naksSent = counter("naks_sent")
	s.ejections = counter("ejections")
	s.overflowDrops = counter("buffer_overflow_drops")
	s.sendErrors = counter("send_errors")
	s.recvQEvictions = counter("recvq_evictions")
	s.wireFrames = counter("wire_frames")
	s.wireBytes = counter("wire_bytes")
	s.wireRawBytes = counter("wire_raw_bytes")
	s.corruptFrames = counter("corrupt_frames")
	s.compressedFrames = counter("compressed_frames")
	s.carrierFrames = counter("carrier_frames")
	s.coalescedPackets = counter("coalesced_packets")
	s.senderBusy = gauge("sender_busy_ns")
	s.srtt = gauge("srtt_ns")
	s.completion = hist("completion_latency")
	s.rtt = hist("rtt")
	return s
}

// Registry exposes the session's named instruments; nil on a nil
// session.
func (s *Session) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// CountSend records one datagram of type t leaving a node.
func (s *Session) CountSend(t packet.Type) {
	if s == nil || int(t) >= numTypes {
		return
	}
	s.sent[t].Inc()
}

// CountRecv records one datagram of type t arriving at a node.
func (s *Session) CountRecv(t packet.Type) {
	if s == nil || int(t) >= numTypes {
		return
	}
	s.received[t].Inc()
}

// CountRetransmission records one retransmitted data packet.
func (s *Session) CountRetransmission() {
	if s != nil {
		s.retransmissions.Inc()
	}
}

// CountNak records one negative acknowledgment sent by a receiver.
func (s *Session) CountNak() {
	if s != nil {
		s.naksSent.Inc()
	}
}

// CountEjection records the sender ejecting a failed receiver.
func (s *Session) CountEjection() {
	if s != nil {
		s.ejections.Inc()
	}
}

// CountWireFrame records one frame leaving a node: its on-wire size,
// its raw (uncompressed v2-framed) size, the number of logical packets
// it carries, and whether its payload shipped compressed. A v1 codec
// calls it only when the session opted into wire accounting, so every
// wire counter otherwise stays zero (and out of the serialized
// snapshot).
func (s *Session) CountWireFrame(wireLen, rawLen, inner int, compressed bool) {
	if s == nil {
		return
	}
	s.wireFrames.Inc()
	s.wireBytes.Add(uint64(wireLen))
	s.wireRawBytes.Add(uint64(rawLen))
	if compressed {
		s.compressedFrames.Inc()
	}
	if inner > 1 {
		s.carrierFrames.Inc()
		s.coalescedPackets.Add(uint64(inner))
	}
}

// CountCorruptFrame records one arriving frame the session's decoder
// rejected (v1: truncated, bad magic, version or type; v2 also CRC
// mismatch, malformed carrier or compression) and dropped before
// delivery.
func (s *Session) CountCorruptFrame() {
	if s != nil {
		s.corruptFrames.Inc()
	}
}

// AddOverflowDrops records n datagrams lost to full receive buffers.
func (s *Session) AddOverflowDrops(n uint64) {
	if s != nil {
		s.overflowDrops.Add(n)
	}
}

// CountSendError records one datagram the socket refused to send.
func (s *Session) CountSendError() {
	if s != nil {
		s.sendErrors.Inc()
	}
}

// CountRecvQEviction records one delivered message dropped, oldest
// first, from a full receive queue nobody was reading.
func (s *Session) CountRecvQEviction() {
	if s != nil {
		s.recvQEvictions.Inc()
	}
}

// AddSenderBusy accumulates sender CPU-busy time.
func (s *Session) AddSenderBusy(d time.Duration) {
	if s != nil {
		s.senderBusy.Add(int64(d))
	}
}

// SetSenderBusy replaces the accumulated sender CPU-busy time (the
// simulator computes it once from the host model at session end).
func (s *Session) SetSenderBusy(d time.Duration) {
	if s != nil {
		s.senderBusy.Set(int64(d))
	}
}

// ObserveRTT records one round-trip sample taken by the sender's
// adaptive retransmission timer and the smoothed estimate (SRTT) that
// resulted.
func (s *Session) ObserveRTT(sample, srtt time.Duration) {
	if s == nil {
		return
	}
	s.rtt.Observe(sample)
	s.srtt.Set(int64(srtt))
}

// ObserveCompletion records receiver rank finishing the session after d.
func (s *Session) ObserveCompletion(rank int, d time.Duration) {
	if s == nil {
		return
	}
	s.completion.Observe(d)
	s.mu.Lock()
	if s.perRecv == nil {
		s.perRecv = map[int]time.Duration{}
	}
	s.perRecv[rank] = d
	s.mu.Unlock()
}

// Metrics is a point-in-time snapshot of a Session, attached to
// simulation results and returned by live nodes. Maps are keyed by
// packet type name and omit zero entries.
type Metrics struct {
	Sent     map[string]uint64 `json:"sent,omitempty"`
	Received map[string]uint64 `json:"received,omitempty"`

	Retransmissions     uint64 `json:"retransmissions"`
	NaksSent            uint64 `json:"naks_sent"`
	Ejections           uint64 `json:"ejections"`
	BufferOverflowDrops uint64 `json:"buffer_overflow_drops"`

	// Live transport losses; zero, and absent from the JSON form, on
	// the simulator.
	SendErrors     uint64 `json:"send_errors,omitempty"`
	RecvQEvictions uint64 `json:"recvq_evictions,omitempty"`

	// Wire accounting (wire format v2, or v1 sessions that opt into
	// frame counting). All zero — and absent from the JSON form, keeping
	// v1 golden digests byte-identical — unless a transport counts
	// frames. WireBytes is what actually went on the wire; WireRawBytes
	// is what the same frames would have cost uncompressed, so
	// WireBytes/WireRawBytes is the session's compression ratio.
	WireFrames       uint64 `json:"wire_frames,omitempty"`
	WireBytes        uint64 `json:"wire_bytes,omitempty"`
	WireRawBytes     uint64 `json:"wire_raw_bytes,omitempty"`
	CorruptFrames    uint64 `json:"corrupt_frames,omitempty"`
	CompressedFrames uint64 `json:"compressed_frames,omitempty"`
	CarrierFrames    uint64 `json:"carrier_frames,omitempty"`
	CoalescedPackets uint64 `json:"coalesced_packets,omitempty"`

	// SenderBusy is the sender host's serial CPU occupancy over the
	// session — the resource ACK implosion exhausts first.
	SenderBusy time.Duration `json:"sender_busy_ns"`

	// SRTT is the sender's smoothed round-trip estimate at snapshot time
	// (zero unless adaptive retransmission timers took a sample); RTTHist
	// is the distribution of the raw samples behind it (nil when no
	// samples were taken, so fixed-timeout runs serialize unchanged).
	SRTT    time.Duration      `json:"srtt_ns,omitempty"`
	RTTHist *HistogramSnapshot `json:"rtt_hist,omitempty"`

	// Completion maps receiver rank to its time-to-complete-message;
	// CompletionHist is the same data as a distribution.
	Completion     map[int]time.Duration `json:"completion_ns,omitempty"`
	CompletionHist HistogramSnapshot     `json:"completion_hist"`
}

// Snapshot copies the session's current state. A nil session yields a
// zero-value (but usable) Metrics.
func (s *Session) Snapshot() Metrics {
	m := Metrics{}
	if s == nil {
		return m
	}
	m.Sent = typeMap(&s.sent)
	m.Received = typeMap(&s.received)
	m.Retransmissions = s.retransmissions.Load()
	m.NaksSent = s.naksSent.Load()
	m.Ejections = s.ejections.Load()
	m.BufferOverflowDrops = s.overflowDrops.Load()
	m.SendErrors = s.sendErrors.Load()
	m.RecvQEvictions = s.recvQEvictions.Load()
	m.WireFrames = s.wireFrames.Load()
	m.WireBytes = s.wireBytes.Load()
	m.WireRawBytes = s.wireRawBytes.Load()
	m.CorruptFrames = s.corruptFrames.Load()
	m.CompressedFrames = s.compressedFrames.Load()
	m.CarrierFrames = s.carrierFrames.Load()
	m.CoalescedPackets = s.coalescedPackets.Load()
	m.SenderBusy = time.Duration(s.senderBusy.Load())
	m.SRTT = time.Duration(s.srtt.Load())
	if h := s.rtt.Snapshot(); h.Count > 0 {
		m.RTTHist = &h
	}
	m.CompletionHist = s.completion.Snapshot()
	s.mu.Lock()
	if len(s.perRecv) > 0 {
		m.Completion = make(map[int]time.Duration, len(s.perRecv))
		for r, d := range s.perRecv {
			m.Completion[r] = d
		}
	}
	s.mu.Unlock()
	return m
}

func typeMap(cs *[numTypes]*Counter) map[string]uint64 {
	var m map[string]uint64
	for t := 0; t < numTypes; t++ {
		if n := cs[t].Load(); n > 0 {
			if m == nil {
				m = map[string]uint64{}
			}
			m[packet.Type(t).String()] = n
		}
	}
	return m
}

// TotalSent returns the sum over all packet types.
func (m Metrics) TotalSent() uint64 { return sumMap(m.Sent) }

// TotalReceived returns the sum over all packet types.
func (m Metrics) TotalReceived() uint64 { return sumMap(m.Received) }

func sumMap(m map[string]uint64) uint64 {
	var n uint64
	for _, v := range m {
		n += v
	}
	return n
}

// Fprint writes a human-readable dump of the snapshot.
func (m Metrics) Fprint(w io.Writer) error {
	if err := fprintTypeMap(w, "sent", m.Sent); err != nil {
		return err
	}
	if err := fprintTypeMap(w, "received", m.Received); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w,
		"retransmissions                  %d\nnaks_sent                        %d\nejections                        %d\nbuffer_overflow_drops            %d\nsender_busy                      %v\n",
		m.Retransmissions, m.NaksSent, m.Ejections, m.BufferOverflowDrops, m.SenderBusy)
	if err != nil {
		return err
	}
	if m.SendErrors > 0 || m.RecvQEvictions > 0 {
		if _, err := fmt.Fprintf(w, "send_errors                      %d\nrecvq_evictions                  %d\n",
			m.SendErrors, m.RecvQEvictions); err != nil {
			return err
		}
	}
	if m.WireFrames > 0 || m.CorruptFrames > 0 {
		if _, err := fmt.Fprintf(w,
			"wire_frames                      %d\nwire_bytes                       %d (raw %d)\ncorrupt_frames                   %d\ncompressed_frames                %d\ncarrier_frames                   %d (coalesced %d)\n",
			m.WireFrames, m.WireBytes, m.WireRawBytes, m.CorruptFrames,
			m.CompressedFrames, m.CarrierFrames, m.CoalescedPackets); err != nil {
			return err
		}
	}
	if h := m.RTTHist; h != nil && h.Count > 0 {
		if _, err := fmt.Fprintf(w, "rtt                              count=%d mean=%v max=%v srtt=%v\n",
			h.Count, h.Mean(), h.Max, m.SRTT); err != nil {
			return err
		}
	}
	if h := m.CompletionHist; h.Count > 0 {
		if _, err := fmt.Fprintf(w, "completion_latency               count=%d mean=%v max=%v\n",
			h.Count, h.Mean(), h.Max); err != nil {
			return err
		}
	}
	return nil
}

// Merge sums snapshots element-wise into one session-wide view: packet
// and event counters add, histograms merge, completion maps union (a
// rank recorded in several inputs keeps the last), SenderBusy adds, and
// SRTT keeps the maximum (only the sending node's is nonzero). The
// loopback harness uses it to aggregate one metrics session per live
// node into the single snapshot the invariant checkers compare against
// the combined trace.
func Merge(ms ...Metrics) Metrics {
	var out Metrics
	for _, m := range ms {
		out.Sent = addMap(out.Sent, m.Sent)
		out.Received = addMap(out.Received, m.Received)
		out.Retransmissions += m.Retransmissions
		out.NaksSent += m.NaksSent
		out.Ejections += m.Ejections
		out.BufferOverflowDrops += m.BufferOverflowDrops
		out.SendErrors += m.SendErrors
		out.RecvQEvictions += m.RecvQEvictions
		out.WireFrames += m.WireFrames
		out.WireBytes += m.WireBytes
		out.WireRawBytes += m.WireRawBytes
		out.CorruptFrames += m.CorruptFrames
		out.CompressedFrames += m.CompressedFrames
		out.CarrierFrames += m.CarrierFrames
		out.CoalescedPackets += m.CoalescedPackets
		out.SenderBusy += m.SenderBusy
		if m.SRTT > out.SRTT {
			out.SRTT = m.SRTT
		}
		if m.RTTHist != nil {
			var base HistogramSnapshot
			if out.RTTHist != nil {
				base = *out.RTTHist
			}
			merged := mergeHist(base, *m.RTTHist)
			out.RTTHist = &merged
		}
		out.CompletionHist = mergeHist(out.CompletionHist, m.CompletionHist)
		if len(m.Completion) > 0 {
			if out.Completion == nil {
				out.Completion = make(map[int]time.Duration, len(m.Completion))
			}
			for r, d := range m.Completion {
				out.Completion[r] = d
			}
		}
	}
	return out
}

func addMap(dst, src map[string]uint64) map[string]uint64 {
	if len(src) == 0 {
		return dst
	}
	if dst == nil {
		dst = make(map[string]uint64, len(src))
	}
	for k, v := range src {
		dst[k] += v
	}
	return dst
}

// mergeHist combines two histogram snapshots bucket-wise (both use the
// fixed power-of-two bucket bounds, so bounds merge exactly).
func mergeHist(a, b HistogramSnapshot) HistogramSnapshot {
	if b.Count == 0 {
		return a
	}
	if a.Count == 0 {
		return b
	}
	out := HistogramSnapshot{Count: a.Count + b.Count, Sum: a.Sum + b.Sum, Max: a.Max}
	if b.Max > out.Max {
		out.Max = b.Max
	}
	byBound := map[time.Duration]uint64{}
	for _, bk := range a.Buckets {
		byBound[bk.Bound] += bk.Count
	}
	for _, bk := range b.Buckets {
		byBound[bk.Bound] += bk.Count
	}
	bounds := make([]time.Duration, 0, len(byBound))
	for bound := range byBound {
		bounds = append(bounds, bound)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	for _, bound := range bounds {
		out.Buckets = append(out.Buckets, Bucket{Bound: bound, Count: byBound[bound]})
	}
	return out
}

func fprintTypeMap(w io.Writer, prefix string, m map[string]uint64) error {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "%-32s %d\n", prefix+"."+n, m[n]); err != nil {
			return err
		}
	}
	return nil
}
