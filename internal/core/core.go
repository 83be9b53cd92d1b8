// Package core implements the four families of reliable multicast
// protocols studied in the paper — ACK-based, NAK-based with polling,
// ring-based, and tree-based over flat trees — as transport-agnostic
// event-driven state machines, plus the raw-UDP baseline.
//
// Protocol endpoints are driven through the Env interface by a runner:
// the simulated cluster (internal/cluster) runs many endpoints in one
// discrete-event process, and the live transport (internal/live) runs
// one endpoint per real UDP multicast socket. Protocol logic is written
// once and shared.
//
// All protocols share the paper's Section 4 machinery: the two-phase
// buffer-allocation handshake (Figure 6), window-based Go-Back-N flow
// control, sender-driven error control with a retransmission timer, and
// a retransmission-suppression interval so a burst of NAKs triggers at
// most one Go-Back-N resend.
package core

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"rmcast/internal/packet"
)

// NodeID identifies a node in the multicast session. The sender is node
// 0; receivers are ranked 1..NumReceivers.
type NodeID int

// SenderID is the sender's NodeID.
const SenderID NodeID = 0

// Protocol selects one of the studied reliable multicast protocols.
type Protocol int

const (
	// ProtoACK: every receiver positively acknowledges every packet.
	ProtoACK Protocol = iota
	// ProtoNAK: receivers NAK gaps; the sender polls every i'th packet
	// for positive acknowledgment to bound buffer occupancy.
	ProtoNAK
	// ProtoRing: receivers acknowledge in round-robin rotation; receiver
	// k ACKs packets k, k+N, k+2N, ... The last packet is ACKed by all.
	ProtoRing
	// ProtoTree: receivers form flat-tree chains of height H; ACKs
	// aggregate along each chain and only chain heads talk to the sender.
	ProtoTree
	// ProtoRawUDP: the unreliable baseline — blast and a single reply on
	// the last packet.
	ProtoRawUDP
)

var protoNames = [...]string{"ack", "nak", "ring", "tree", "rawudp"}

func (p Protocol) String() string {
	if int(p) < len(protoNames) {
		return protoNames[p]
	}
	return fmt.Sprintf("protocol(%d)", int(p))
}

// ParseProtocol converts a protocol name to its Protocol value.
func ParseProtocol(s string) (Protocol, error) {
	for i, n := range protoNames {
		if n == s {
			return Protocol(i), nil
		}
	}
	return 0, fmt.Errorf("core: unknown protocol %q", s)
}

// TimerID names a pending Env timer; the zero value means "no timer".
type TimerID uint64

// Env is the runtime a protocol endpoint executes in. Implementations:
// the simulated cluster node and the live UDP node. All methods are
// non-blocking; time-consuming effects (CPU charges, wire time) happen
// behind the scenes.
//
// The packet handed to Send and Multicast is lent for the call: a
// receiver builds every transmission in one packet of its own and
// overwrites it for the next, so an Env encodes (or Clones) before it
// returns and keeps neither p nor p.Payload. Both implementations do —
// cluster.env and live's liveEnv trace by value, count by type and
// frame through wire.Codec at once, and live's Config.DropSend hook
// answers during the call.
type Env interface {
	// Now returns the node-local notion of elapsed time.
	Now() time.Duration
	// Send unicasts p to node to.
	Send(to NodeID, p *packet.Packet)
	// Multicast sends p to the whole group (the sender's data channel).
	Multicast(p *packet.Packet)
	// SetTimer runs fn after d. Cancelling an already-fired timer is a
	// no-op, so endpoints guard handlers with generation counters.
	SetTimer(d time.Duration, fn func()) TimerID
	// CancelTimer cancels a pending timer.
	CancelTimer(id TimerID)
	// UserCopy charges the cost of copying n bytes between the
	// application message and the protocol buffer (a no-op on the live
	// transport, where the copy physically happens in Send).
	UserCopy(n int)
}

// Config parameterizes a multicast session. The same Config must be used
// by the sender and all receivers.
type Config struct {
	// Protocol selects the reliability scheme.
	Protocol Protocol
	// NumReceivers is the group size (receivers are ranked 1..N).
	NumReceivers int
	// PacketSize is the data payload carried per packet, 1..MaxDatagram
	// minus header.
	PacketSize int
	// WindowSize is the Go-Back-N window in packets.
	WindowSize int
	// PollInterval i flags every i'th packet for acknowledgment
	// (NAK-based protocol only). The last packet is always flagged.
	PollInterval int
	// TreeHeight H is the flat-tree chain length (tree protocol only).
	// H=1 degenerates to the ACK-based protocol; H=NumReceivers is a
	// single chain.
	TreeHeight int
	// TreeLayout selects the rank-to-chain assignment (tree protocol
	// only): the paper's interleaved round-robin numbering (the
	// default), or blocked contiguous ranks, which keeps each chain
	// inside one switch domain when the runner places consecutive ranks
	// on the same leaf switch. See FlatTree.
	TreeLayout TreeLayout
	// NumRings partitions the ring protocol's rotation into that many
	// rings of contiguous ranks (ring protocol only). Zero or one is
	// the paper's single rotation over all N receivers; R>1 rotates
	// responsibility independently inside each ring, so every packet
	// draws R acknowledgments instead of one while the window
	// requirement shrinks from N to the ring span ceil(N/R) — the knob
	// that lets the ring protocol scale past a few hundred receivers.
	NumRings int
	// RetransTimeout is the sender-driven retransmission timeout.
	RetransTimeout time.Duration
	// AllocTimeout is the retransmission timeout for the buffer
	// allocation handshake.
	AllocTimeout time.Duration
	// SuppressInterval is the paper's sender-side NAK/retransmission
	// suppression: at most one Go-Back-N retransmission per interval.
	SuppressInterval time.Duration
	// NakInterval rate-limits each receiver's NAK generation.
	NakInterval time.Duration
	// NoUserCopy skips the user-space copy into the protocol buffer —
	// the deliberately incorrect variant of the paper's Figure 9.
	NoUserCopy bool
	// NakSuppression enables the receiver-side multicast NAK
	// suppression scheme of Pingali [16] that the paper describes but
	// does not use: a receiver detecting a gap waits a random delay and
	// then multicasts its NAK; receivers that overhear a NAK covering
	// their own gap behave as if they had sent it. The paper's
	// implementation relies on sender-side suppression instead
	// (SuppressInterval); this option exists for the comparison
	// (ablation_naksupp).
	NakSuppression bool
	// PaceInterval, when positive, adds rate-based pacing on top of the
	// window: the sender spaces first transmissions of data packets at
	// least this far apart. The paper notes flow control "can either be
	// rate-based or window-based"; this implements the hybrid.
	PaceInterval time.Duration
	// AdaptiveRTO switches the sender's retransmission timers from the
	// fixed RetransTimeout/AllocTimeout (scaled by exponential backoff)
	// to an RTT-estimated adaptive policy: SRTT/RTTVAR smoothing over
	// round-trip samples, Karn's rule on retransmitted packets,
	// exponential backoff with deterministic jitter, and [MinRTO,
	// MaxRTO] clamps. RetransTimeout remains the initial RTO before the
	// first sample. Off by default: the simulator's golden traces pin
	// the fixed-timeout behavior; the live transport enables it, where
	// real paths have real (and drifting) round-trip times.
	AdaptiveRTO bool
	// MinRTO and MaxRTO clamp the adaptive retransmission timeout
	// (defaults DefaultMinRTO/DefaultMaxRTO). Only meaningful with
	// AdaptiveRTO.
	MinRTO time.Duration
	MaxRTO time.Duration
	// MaxRetries enables receiver-failure detection. The paper's
	// protocols assume a fixed healthy membership, so a crashed receiver
	// wedges the sender in infinite retransmission; with MaxRetries > 0
	// the sender reacts to that many consecutive no-progress timeout
	// rounds by probing the stalled peers (unicast ping) and, after
	// ProbeRounds unanswered rounds, ejecting the silent ones: they are
	// removed from the acknowledgment minimum, tree chains are spliced
	// around them, and the transfer completes for the survivors. Zero
	// (the default) preserves the paper's wait-forever behavior.
	MaxRetries int
	// SessionDeadline, when positive, bounds one whole transfer: when it
	// expires the sender declares every receiver it cannot prove
	// complete as failed and terminates with a partial result instead of
	// retransmitting forever. Zero means no deadline.
	SessionDeadline time.Duration
	// Absent lists receiver ranks that are not members at session start:
	// the sender excludes them from the roll call, the acknowledgment
	// minimum, and the tree chains until they join (JoinReq/JoinOK
	// handshake). A rank listed here that never joins is simply not part
	// of the transfer — neither delivered nor failed.
	Absent []NodeID
	// JoinCatchup selects who serves a late joiner the prefix it missed.
	JoinCatchup Catchup
	// SessionTag distinguishes concurrent sessions sharing one fabric:
	// the sender seeds its message identifiers at SessionTag<<16, so a
	// misdelivered packet from another session can never alias a live
	// message id. Zero (the default) keeps the single-session numbering
	// (message ids 1, 2, ...) byte-identical. Must fit in 16 bits.
	SessionTag uint32
	// Rate configures the opt-in AIMD window/pacing controller driven by
	// per-round loss and the smoothed RTT signal. The zero value
	// disables it and preserves the fixed-window behavior exactly.
	Rate RateControl
	// WireV2 opts the session into wire format v2: every frame carries a
	// CRC32-C trailer verified on decode (corrupt frames are counted and
	// dropped, never delivered), payloads at or above CompressThreshold
	// ship flate-compressed when that actually shrinks them, and queued
	// sub-MTU data packets coalesce into MTU-sized carrier frames. All
	// peers of a session must agree on the format: v2 receivers decode
	// strictly and reject v1 frames. Off (the default) keeps the v1 wire
	// format byte-identical.
	WireV2 bool
	// ARQ selects the error-recovery scheme. Under ARQSelective
	// receivers buffer out-of-order packets (directly into the
	// preallocated message buffer) and the sender retransmits only
	// NAKed/timed-out packets; under ARQGoBackN it rewinds the window.
	// The paper chose Go-Back-N because wired-LAN error rates make the
	// schemes perform identically while Go-Back-N is simpler
	// (ablation_gobackn tests that claim). ARQAuto (the default)
	// follows the wire format: selective repeat under WireV2, since
	// coalesced small-message streams make Go-Back-N's full-window
	// rewinds expensive, and Go-Back-N otherwise. Normalize resolves
	// ARQAuto, so code past it sees only the two explicit schemes.
	ARQ ARQMode
	// CompressThreshold is the smallest payload WireV2 attempts to
	// compress (default packet.DefaultCompressThreshold; negative
	// disables compression). Ignored without WireV2.
	CompressThreshold int
	// CoalesceMTU is the carrier-frame budget in bytes for WireV2
	// small-message coalescing (default packet.DefaultCoalesceMTU).
	// Ignored without WireV2.
	CoalesceMTU int
}

// ARQMode selects the retransmission scheme (see Config.ARQ).
type ARQMode int

const (
	// ARQAuto follows the wire format: selective repeat under WireV2,
	// Go-Back-N otherwise.
	ARQAuto ARQMode = iota
	// ARQGoBackN forces Go-Back-N.
	ARQGoBackN
	// ARQSelective forces selective repeat.
	ARQSelective
)

func (a ARQMode) String() string {
	switch a {
	case ARQAuto:
		return "auto"
	case ARQGoBackN:
		return "gobackn"
	case ARQSelective:
		return "selective"
	default:
		return fmt.Sprintf("arq(%d)", int(a))
	}
}

// TreeLayout selects how tree-protocol ranks map onto chains.
type TreeLayout int

const (
	// TreeInterleave is the paper's Figure 5 round-robin numbering.
	TreeInterleave TreeLayout = iota
	// TreeBlocked assigns contiguous rank blocks to each chain,
	// aligning chains with switch domains under contiguous placement.
	TreeBlocked
)

func (t TreeLayout) String() string {
	switch t {
	case TreeInterleave:
		return "interleave"
	case TreeBlocked:
		return "blocked"
	default:
		return fmt.Sprintf("treelayout(%d)", int(t))
	}
}

// Catchup selects the late-join catch-up source.
type Catchup int

const (
	// CatchupSender: the sender streams the missed prefix as snapshot
	// packets from its own message buffer (the default).
	CatchupSender Catchup = iota
	// CatchupPeer: the sender delegates the snapshot to a caught-up
	// peer, keeping the catch-up traffic off the sender's link; repair
	// of lost snapshots still falls back to the sender.
	CatchupPeer
)

var catchupNames = [...]string{"sender", "peer"}

func (c Catchup) String() string {
	if int(c) < len(catchupNames) {
		return catchupNames[c]
	}
	return fmt.Sprintf("catchup(%d)", int(c))
}

// ParseCatchup converts a catch-up mode name to its Catchup value.
func ParseCatchup(s string) (Catchup, error) {
	for i, n := range catchupNames {
		if n == s {
			return Catchup(i), nil
		}
	}
	return 0, fmt.Errorf("core: unknown catch-up mode %q (valid: %s)",
		s, strings.Join(catchupNames[:], ", "))
}

// ProbeRounds is the number of unanswered ping rounds (each one
// RetransTimeout long) after which a suspect receiver is ejected.
const ProbeRounds = 3

// Defaults for the timing knobs, chosen for a sub-millisecond-RTT LAN.
// The retransmission timeout must exceed the protocol's longest natural
// acknowledgment silence — for the NAK protocol that is the poll
// interval times the per-packet transmit time (43 polls × 4 ms for
// 50 KB packets ≈ 180 ms), so the default is generous; on an error-free
// LAN it never fires and costs nothing.
const (
	DefaultRetransTimeout   = 250 * time.Millisecond
	DefaultAllocTimeout     = 10 * time.Millisecond
	DefaultSuppressInterval = 5 * time.Millisecond
	DefaultNakInterval      = 2 * time.Millisecond
)

// MaxPacketSize is the largest data payload per packet (the UDP maximum
// minus the protocol header), ~64 KB as in the paper.
const MaxPacketSize = 65507 - packet.HeaderLen

// Normalize fills zero timing fields with defaults and returns an error
// for invalid configurations.
func (c Config) Normalize() (Config, error) {
	if c.NumReceivers < 1 {
		return c, errors.New("core: NumReceivers must be >= 1")
	}
	if c.PacketSize < 1 || c.PacketSize > MaxPacketSize {
		return c, fmt.Errorf("core: PacketSize %d out of range [1,%d]", c.PacketSize, MaxPacketSize)
	}
	if c.WindowSize < 1 && c.Protocol != ProtoRawUDP {
		return c, errors.New("core: WindowSize must be >= 1")
	}
	switch c.Protocol {
	case ProtoNAK:
		if c.PollInterval < 1 {
			return c, errors.New("core: NAK protocol requires PollInterval >= 1")
		}
		if c.PollInterval > c.WindowSize {
			return c, fmt.Errorf("core: PollInterval %d exceeds WindowSize %d (the window could deadlock)",
				c.PollInterval, c.WindowSize)
		}
	case ProtoRing:
		if c.NumRings > c.NumReceivers {
			return c, fmt.Errorf("core: NumRings %d exceeds NumReceivers %d", c.NumRings, c.NumReceivers)
		}
		if c.WindowSize <= c.RingSpan() {
			return c, fmt.Errorf("core: ring protocol requires WindowSize > ring span (%d <= %d): "+
				"an ACK for packet X only frees packet X-span", c.WindowSize, c.RingSpan())
		}
	case ProtoTree:
		if c.TreeHeight < 1 || c.TreeHeight > c.NumReceivers {
			return c, fmt.Errorf("core: TreeHeight %d out of range [1,%d]", c.TreeHeight, c.NumReceivers)
		}
	}
	if c.NumRings < 0 {
		return c, errors.New("core: NumRings must be >= 0")
	}
	if c.NumRings > 0 && c.Protocol != ProtoRing {
		return c, fmt.Errorf("core: NumRings only applies to the ring protocol (got %v)", c.Protocol)
	}
	if c.TreeLayout < TreeInterleave || c.TreeLayout > TreeBlocked {
		return c, fmt.Errorf("core: invalid TreeLayout %d", int(c.TreeLayout))
	}
	if c.TreeLayout != TreeInterleave && c.Protocol != ProtoTree {
		return c, fmt.Errorf("core: TreeLayout only applies to the tree protocol (got %v)", c.Protocol)
	}
	if c.RetransTimeout == 0 {
		c.RetransTimeout = DefaultRetransTimeout
	}
	if c.AllocTimeout == 0 {
		c.AllocTimeout = DefaultAllocTimeout
	}
	if c.SuppressInterval == 0 {
		c.SuppressInterval = DefaultSuppressInterval
	}
	if c.NakInterval == 0 {
		c.NakInterval = DefaultNakInterval
	}
	if c.MinRTO < 0 || c.MaxRTO < 0 {
		return c, errors.New("core: MinRTO and MaxRTO must be >= 0")
	}
	if c.AdaptiveRTO {
		if c.MinRTO == 0 {
			c.MinRTO = DefaultMinRTO
		}
		if c.MaxRTO == 0 {
			c.MaxRTO = DefaultMaxRTO
		}
		if c.MaxRTO < c.MinRTO {
			return c, fmt.Errorf("core: MaxRTO %v below MinRTO %v", c.MaxRTO, c.MinRTO)
		}
	}
	if c.SessionTag > 0xFFFF {
		return c, fmt.Errorf("core: SessionTag %d does not fit in 16 bits", c.SessionTag)
	}
	switch c.ARQ {
	case ARQAuto:
		c.ARQ = ARQGoBackN
		if c.WireV2 {
			c.ARQ = ARQSelective
		}
	case ARQGoBackN, ARQSelective:
	default:
		return c, fmt.Errorf("core: invalid ARQ mode %d", int(c.ARQ))
	}
	if c.WireV2 {
		// Zero keeps each knob's default, which internal/wire resolves.
		if c.CoalesceMTU != 0 && c.CoalesceMTU < packet.MinCoalesceMTU {
			return c, fmt.Errorf("core: CoalesceMTU %d cannot fit a single coalesced header", c.CoalesceMTU)
		}
		if c.PacketSize > MaxPacketSize-packet.OverheadV2 {
			return c, fmt.Errorf("core: PacketSize %d exceeds the v2 maximum %d",
				c.PacketSize, MaxPacketSize-packet.OverheadV2)
		}
	} else if c.CompressThreshold != 0 || c.CoalesceMTU != 0 {
		return c, errors.New("core: CompressThreshold/CoalesceMTU require WireV2")
	}
	var err error
	if c.Rate, err = c.Rate.normalize(c); err != nil {
		return c, err
	}
	if c.MaxRetries < 0 {
		return c, errors.New("core: MaxRetries must be >= 0")
	}
	if c.SessionDeadline < 0 {
		return c, errors.New("core: SessionDeadline must be >= 0")
	}
	if c.JoinCatchup < CatchupSender || c.JoinCatchup > CatchupPeer {
		return c, fmt.Errorf("core: invalid JoinCatchup %d", int(c.JoinCatchup))
	}
	seen := make(map[NodeID]bool, len(c.Absent))
	for _, r := range c.Absent {
		if r < 1 || int(r) > c.NumReceivers {
			return c, fmt.Errorf("core: Absent rank %d out of range [1,%d]", r, c.NumReceivers)
		}
		if seen[r] {
			return c, fmt.Errorf("core: Absent rank %d listed twice", r)
		}
		seen[r] = true
	}
	if len(c.Absent) >= c.NumReceivers && c.Protocol != ProtoRawUDP {
		return c, errors.New("core: every receiver absent; nothing to send to")
	}
	if len(c.Absent) > 0 && c.Protocol == ProtoRawUDP {
		return c, errors.New("core: rawudp has no membership; Absent requires a reliable protocol")
	}
	return c, nil
}

// IsAbsent reports whether rank is listed in Absent.
func (c Config) IsAbsent(rank NodeID) bool {
	for _, r := range c.Absent {
		if r == rank {
			return true
		}
	}
	return false
}

// PartialResult describes a session that ended without full delivery to
// the original membership: receivers ejected by failure detection or
// outstanding at the session deadline are listed in Failed. It
// implements error so transports can surface degraded completion
// without losing the survivor set.
type PartialResult struct {
	// Delivered lists the receivers known (or believed) to have received
	// the complete message.
	Delivered []NodeID
	// Failed lists the receivers ejected from the session, in ejection
	// order.
	Failed []NodeID
	// Err is the underlying cause (deadline expiry, simulator stall),
	// nil when failure detection alone degraded the membership.
	Err error
}

func (p *PartialResult) Error() string {
	msg := fmt.Sprintf("core: partial delivery: %d receivers delivered, %d failed %v",
		len(p.Delivered), len(p.Failed), p.Failed)
	if p.Err != nil {
		msg += ": " + p.Err.Error()
	}
	return msg
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (p *PartialResult) Unwrap() error { return p.Err }

// RingCount returns the effective number of rings (at least 1).
func (c Config) RingCount() int {
	if c.NumRings > 1 {
		return c.NumRings
	}
	return 1
}

// RingSpan returns the rotation period: the size of the largest ring,
// ceil(N/R). The Go-Back-N window must exceed it, since a member's
// acknowledgment for packet X only frees packet X-span.
func (c Config) RingSpan() int {
	r := c.RingCount()
	return (c.NumReceivers + r - 1) / r
}

// ringGeom returns rank's ring geometry: its 0-based position within
// its ring and the ring's size. Rings are contiguous rank blocks of
// RingSpan members (the last ring may be smaller).
func (c Config) ringGeom(rank NodeID) (pos, size int) {
	k := c.RingSpan()
	first := (int(rank) - 1) / k * k
	size = c.NumReceivers - first
	if size > k {
		size = k
	}
	return (int(rank) - 1) - first, size
}

// RingResponsible reports whether receiver rank's rotation slot covers
// sequence seq under the ring protocol. With a single ring, receiver k
// acknowledges packets k-1, k-1+N, k-1+2N, ...; with R>1 rings the
// same rotation runs independently inside each contiguous rank block,
// so each packet is acknowledged by one member of every ring. This is
// the single definition shared by the receiver state machine and the
// ring invariant checker, so the checker can never drift from the
// protocol.
func (c Config) RingResponsible(rank NodeID, seq uint32) bool {
	pos, size := c.ringGeom(rank)
	return int(seq)%size == pos
}

// RingFirstSlot returns the lowest sequence rank's rotation slot
// covers — its position within its ring. The ring checker uses it: a
// rotation acknowledgment from rank for a sequence below this could
// not have been produced by the responsibility rule.
func (c Config) RingFirstSlot(rank NodeID) uint32 {
	pos, _ := c.ringGeom(rank)
	return uint32(pos)
}

// Tree returns the flat-tree structure the configuration describes —
// the single definition shared by the sender, the receivers, and the
// tree invariant checker's shadows.
func (c Config) Tree() FlatTree {
	return FlatTree{N: c.NumReceivers, H: c.TreeHeight, Blocked: c.TreeLayout == TreeBlocked}
}

// PacketCount returns the number of data packets for a message of size
// bytes under config c (at least 1: a zero-byte message still sends one
// empty packet so the handshake and completion logic are uniform).
func (c Config) PacketCount(size int) uint32 {
	if size <= 0 {
		return 1
	}
	return uint32((size + c.PacketSize - 1) / c.PacketSize)
}

// Endpoint is the packet-input side of any protocol endpoint.
type Endpoint interface {
	// OnPacket handles a decoded packet from node from.
	OnPacket(from NodeID, p *packet.Packet)
}
