// Package packet defines the reliable-multicast wire format shared by the
// simulated and live transports.
//
// Following the paper's Section 4, sender/receiver identity comes from
// the UDP/IP header; the protocol header adds a packet type and a
// four-byte sequence number, plus a message id and an auxiliary word
// (message size for allocation requests, byte offset for data packets)
// that make the implementation robust to reordered sessions.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Type identifies a protocol packet.
type Type uint8

// Packet types. Alloc packets implement the paper's Figure 6 buffer
// allocation handshake; Data/Ack/Nak are the three types of Section 4.
const (
	TypeInvalid Type = iota
	TypeAllocReq
	TypeAllocOK
	TypeData
	TypeAck
	TypeNak
	// TypeHello announces a node on the live transport: Aux carries the
	// node's rank so peers can map UDP source addresses to ranks. The
	// simulator does not use it (addresses are ranks there).
	TypeHello
	// TypePing is a liveness probe from the sender to a suspect
	// receiver during failure detection.
	TypePing
	// TypePong answers a ping: Seq carries the receiver's cumulative
	// progress (its next expected sequence), so a probe doubles as
	// lost-acknowledgment repair.
	TypePong
	// TypeEject announces a membership change: Aux carries the rank the
	// sender has declared dead. Tree receivers splice their chains
	// around it; the ejected node, if merely stalled, goes quiet.
	TypeEject
	// TypeJoinReq asks the sender to admit a late-joining receiver.
	// Unicast, retried until TypeJoinOK arrives.
	TypeJoinReq
	// TypeJoinOK admits a joiner: MsgID names the in-flight session,
	// Seq carries the join base (the first sequence the joiner will see
	// live; everything below it arrives as snapshot), and Aux the
	// message size in bytes. Aux == 0 means no session is active and the
	// joiner simply waits for the next allocation request.
	TypeJoinOK
	// TypeJoined announces an admission to the whole group: Aux carries
	// the admitted rank and Seq the join base. Receivers splice the
	// newcomer into their chain views; auditors use Seq to seed shadow
	// trackers without seeing the unicast TypeJoinOK.
	TypeJoined
	// TypeSnap carries catch-up data to a late joiner: Seq, Aux (byte
	// offset), Flags, and Payload are identical to the original data
	// packet for that sequence, so acknowledgment duties replay.
	TypeSnap
	// TypeSnapDel delegates catch-up to a peer: Aux carries the joiner's
	// rank and Seq the join base; the delegate serves snapshots for
	// [0, Seq) from its own buffer.
	TypeSnapDel
	// TypeLeave asks the sender for a graceful departure. Unicast,
	// retried until the leaver sees its own TypeLeft.
	TypeLeave
	// TypeLeft announces a graceful departure: Aux carries the departed
	// rank. Receivers splice their chains exactly as for TypeEject; the
	// leaver goes silent; auditors record the rank as left, not failed.
	TypeLeft
)

var typeNames = [...]string{"invalid", "alloc-req", "alloc-ok", "data", "ack", "nak", "hello",
	"ping", "pong", "eject", "join-req", "join-ok", "joined", "snap", "snap-del", "leave", "left"}

func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Valid reports whether t is a known packet type.
func (t Type) Valid() bool { return t > TypeInvalid && t <= TypeLeft }

// Flags annotate data packets.
type Flags uint8

const (
	// FlagPoll asks every receiver to acknowledge this packet (the
	// NAK-based protocol's polling mechanism).
	FlagPoll Flags = 1 << iota
	// FlagLast marks the final data packet of a message.
	FlagLast
	// FlagActive on a TypeJoinOK marks an in-flight session the joiner
	// must catch up on (Aux alone cannot: a zero-byte message is legal).
	FlagActive
)

// Header and size constants.
const (
	// Magic guards against stray datagrams on the live transport.
	Magic = 0xA7
	// Version of the wire format.
	Version = 1
	// HeaderLen is the fixed encoded header size.
	HeaderLen = 18
	// MaxSeq bounds sequence numbers (they fit a uint32 and never wrap:
	// a message has at most MaxDatagram-sized packets).
	MaxSeq = 1<<32 - 1
)

// Packet is one protocol packet.
//
// Field use by type:
//
//	AllocReq: Aux = message size in bytes
//	AllocOK:  Aux = echoed message size
//	Data:     Seq = packet sequence, Aux = byte offset, Payload = data
//	Ack:      Seq = cumulative acknowledgment (next sequence expected)
//	Nak:      Seq = first missing sequence
//	JoinOK:   Seq = join base, Aux = message size (0 = no session)
//	Joined:   Seq = join base, Aux = admitted rank
//	Snap:     Seq = packet sequence, Aux = byte offset, Payload = data
//	SnapDel:  Seq = join base, Aux = joiner rank
//	Left:     Aux = departed rank
type Packet struct {
	Type  Type
	Flags Flags
	// Src is the sending node's rank (0 = sender). The simulator
	// derives identity from the simulated UDP header instead; the live
	// transport relies on this field for identity and to filter its own
	// looped-back multicast.
	Src     uint16
	MsgID   uint32
	Seq     uint32
	Aux     uint32
	Payload []byte
}

// WireLen returns the encoded length in bytes.
func (p *Packet) WireLen() int { return HeaderLen + len(p.Payload) }

// Encode serializes the packet into a fresh buffer.
func (p *Packet) Encode() []byte {
	b := make([]byte, p.WireLen())
	p.EncodeTo(b)
	return b
}

// EncodeTo serializes into b, which must be at least WireLen() long, and
// returns the number of bytes written.
func (p *Packet) EncodeTo(b []byte) int {
	if len(b) < p.WireLen() {
		panic("packet: EncodeTo buffer too small")
	}
	p.putHeader(b)
	copy(b[HeaderLen:], p.Payload)
	return p.WireLen()
}

// putHeader writes the fixed v1 header into b[:HeaderLen].
func (p *Packet) putHeader(b []byte) {
	b[0] = Magic
	b[1] = Version
	b[2] = byte(p.Type)
	b[3] = byte(p.Flags)
	binary.BigEndian.PutUint32(b[4:8], p.MsgID)
	binary.BigEndian.PutUint32(b[8:12], p.Seq)
	binary.BigEndian.PutUint32(b[12:16], p.Aux)
	binary.BigEndian.PutUint16(b[16:18], p.Src)
}

// Decoding errors.
var (
	ErrTruncated  = errors.New("packet: truncated header")
	ErrBadMagic   = errors.New("packet: bad magic byte")
	ErrBadVersion = errors.New("packet: unsupported version")
	ErrBadType    = errors.New("packet: unknown packet type")
)

// Decode parses an encoded v1 packet into a fresh Packet.
//
// Ownership: the returned packet's Payload is a borrow — it aliases
// b's storage and is valid only for as long as the caller owns b.
// Transports that recycle receive buffers (the simulator's pooled
// frames, a future recvmmsg ring) may overwrite b the moment the
// packet handler returns, so a handler that retains payload bytes
// beyond its own invocation MUST copy them first (Clone does). Every
// endpoint in internal/core honors this: payloads are copied into the
// preallocated message buffer (Receiver.store) or read to completion
// (membership views) before the handler returns.
//
// The struct itself is the caller's here, but on the transports' path
// it is a borrow too: wire.Codec decodes every frame into one scratch
// Packet (DecodeInto, DecodeFrameV2Into) and overwrites it after the
// handler returns, so a handler keeps neither the payload nor the
// *Packet — Clone copies both.
func Decode(b []byte) (*Packet, error) {
	p := new(Packet)
	if err := DecodeInto(p, b); err != nil {
		return nil, err
	}
	return p, nil
}

// DecodeInto is Decode into the caller's Packet: every field of p is
// overwritten on success and p is untouched on error. It allocates
// nothing; the ownership rule for the payload is Decode's.
func DecodeInto(p *Packet, b []byte) error {
	if len(b) < HeaderLen {
		return ErrTruncated
	}
	if b[0] != Magic {
		return ErrBadMagic
	}
	if b[1] != Version {
		return ErrBadVersion
	}
	if !Type(b[2]).Valid() {
		return ErrBadType
	}
	p.setHeader(b)
	p.Payload = nil
	if len(b) > HeaderLen {
		p.Payload = b[HeaderLen:]
	}
	return nil
}

// PeekSrc reads the Src field of an encoded v1 or v2 frame without
// decoding it. Guards run before the field is trusted: length, magic,
// version. ok is false for anything else; such a frame is left to the
// strict decoder to reject and count. A v2 carrier's outer header
// echoes its first inner packet, so it answers for the sender of all.
func PeekSrc(b []byte) (src uint16, ok bool) {
	if len(b) < HeaderLen || b[0] != Magic || (b[1] != Version && b[1] != Version2) {
		return 0, false
	}
	return binary.BigEndian.Uint16(b[16:18]), true
}

// setHeader reads the fixed header fields (v1 and v2 share the layout)
// from b[:HeaderLen].
func (p *Packet) setHeader(b []byte) {
	p.Type = Type(b[2])
	p.Flags = Flags(b[3])
	p.MsgID = binary.BigEndian.Uint32(b[4:8])
	p.Seq = binary.BigEndian.Uint32(b[8:12])
	p.Aux = binary.BigEndian.Uint32(b[12:16])
	p.Src = binary.BigEndian.Uint16(b[16:18])
}

func (p *Packet) String() string {
	return fmt.Sprintf("%s msg=%d seq=%d aux=%d flags=%02x len=%d",
		p.Type, p.MsgID, p.Seq, p.Aux, uint8(p.Flags), len(p.Payload))
}
