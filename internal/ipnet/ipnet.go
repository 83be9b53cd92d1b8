// Package ipnet models the IP/UDP layer and end hosts on top of the
// ethernet package: datagrams up to 64 KB, fragmentation to the Ethernet
// MTU with reassembly and timeout, UDP sockets with finite receive
// buffers (overflow drops, the dominant loss mode on a wired LAN per the
// paper), multicast group membership, and a serialized per-host CPU cost
// model that charges for syscalls, kernel copies, per-fragment input
// processing, and the user-level copy the paper's Figure 9 isolates.
//
// The CPU model is what makes the protocol comparison meaningful: a host
// is a single serial resource, so a sender that must process one ACK per
// receiver per packet (ACK implosion) spends real simulated time doing
// it, delaying its own transmissions exactly as the paper observes.
package ipnet

import (
	"time"

	"rmcast/internal/ethernet"
)

// Addr is a host or multicast-group address. Host addresses are small
// dense non-negative integers that double as their Ethernet station
// addresses; addresses at or above GroupBase name multicast groups.
type Addr int32

// GroupBase is the first multicast group address.
const GroupBase Addr = 1 << 20

// IsMulticast reports whether a names a multicast group.
func (a Addr) IsMulticast() bool { return a >= GroupBase }

// Group returns the i'th multicast group address.
func Group(i int) Addr { return GroupBase + Addr(i) }

// Protocol size constants, matching real IPv4/UDP.
const (
	// MaxDatagram is the largest UDP payload (65535 − 20 IP − 8 UDP).
	MaxDatagram = 65507
	// IPHeader is the IPv4 header size carried by every fragment.
	IPHeader = 20
	// UDPHeader is carried in the first fragment only.
	UDPHeader = 8
	// FragPayload is the IP payload carried per MTU-sized fragment.
	FragPayload = ethernet.MTU - IPHeader // 1480
)

// FragmentCount returns how many Ethernet frames a UDP payload of n
// bytes occupies.
func FragmentCount(n int) int {
	udp := n + UDPHeader
	c := (udp + FragPayload - 1) / FragPayload
	if c < 1 {
		c = 1
	}
	return c
}

// WireBytes returns the total on-wire byte cost of a UDP payload of n
// bytes, summed over all of its fragments including Ethernet overhead.
func WireBytes(n int) int {
	udp := n + UDPHeader
	total := 0
	for udp > 0 {
		chunk := udp
		if chunk > FragPayload {
			chunk = FragPayload
		}
		total += ethernet.WireSize(chunk + IPHeader)
		udp -= chunk
	}
	if total == 0 {
		total = ethernet.WireSize(UDPHeader + IPHeader)
	}
	return total
}

// Datagram is one UDP datagram.
type Datagram struct {
	Src     Addr
	Dst     Addr // unicast host or multicast group
	SrcPort int
	DstPort int
	Payload []byte
}

// fragment is the ethernet.Frame payload: one IP fragment of a datagram.
// payload is a subslice of the sender's payload buffer pb —
// fragmentation never copies bytes — and every fragment carries the
// complete datagram metadata, because with loss and reordering any
// fragment can be the first (or only) one a receiver sees. Fragments
// live inside pooled txFrames; tf and pb's owner route the frame back to
// the sending host's pool when the last reference is released, and the
// frame's reference to pb goes with it.
type fragment struct {
	tf      *txFrame
	pb      *payloadBuf
	src     Addr // sending host (also the reassembly key)
	dst     Addr
	srcPort int
	dstPort int
	id      uint64 // per-sender IP identification
	index   int
	count   int
	total   int    // payload bytes of the whole datagram
	payload []byte // this fragment's subslice of pb
}

// CostModel captures per-host processing costs. Per-byte costs are in
// nanoseconds per byte (float64, because realistic values are a few ns
// and fractions matter at 100 Mbps time scales).
type CostModel struct {
	// SendSyscall is the fixed cost of one sendto().
	SendSyscall time.Duration
	// SendPerByteNs is the kernel copy + checksum cost per sent byte.
	SendPerByteNs float64
	// RecvSyscall is the fixed cost of one recvfrom() including the
	// surrounding select/poll and user-level protocol dispatch.
	RecvSyscall time.Duration
	// RecvPerByteNs is the kernel→user copy cost per received byte.
	RecvPerByteNs float64
	// FragOverhead is the per-fragment kernel input cost (interrupt,
	// IP processing, reassembly bookkeeping).
	FragOverhead time.Duration
	// UserCopyPerByteNs is the user-space copy from the application
	// message into the protocol buffer (and back on the receive side).
	// This is the copy the paper's Figure 9 isolates; it is charged by
	// the protocol layer via Host.UserCopy, not automatically.
	UserCopyPerByteNs float64
	// TimerOverhead is the cost of fielding a user-level timer
	// (gettimeofday and bookkeeping, per the paper's Section 4).
	TimerOverhead time.Duration
	// RecvJitterNs is the maximum uniform random latency added to each
	// received frame before kernel processing, modeling interrupt and
	// scheduler phase jitter. Without it, identical hosts react to a
	// multicast at exactly the same nanosecond, which synchronizes their
	// acknowledgments into repeated CSMA/CD collisions no real LAN
	// exhibits (the paper itself notes "communication in Ethernet can
	// sometimes be quite random" and averages repeated measurements).
	RecvJitterNs float64
}

// DefaultCosts returns the calibration for the paper's Pentium III
// 650 MHz hosts under RedHat 6.2 (see DESIGN.md for the derivation).
func DefaultCosts() CostModel {
	return CostModel{
		SendSyscall:       30 * time.Microsecond,
		SendPerByteNs:     3.0,
		RecvSyscall:       50 * time.Microsecond,
		RecvPerByteNs:     3.0,
		FragOverhead:      5 * time.Microsecond,
		UserCopyPerByteNs: 65.0,
		TimerOverhead:     8 * time.Microsecond,
		RecvJitterNs:      20_000,
	}
}

// PerByte converts a nanoseconds-per-byte rate applied to n bytes into a
// duration.
func PerByte(n int, nsPerByte float64) time.Duration {
	return time.Duration(float64(n) * nsPerByte)
}
