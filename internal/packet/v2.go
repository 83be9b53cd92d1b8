// Wire format v2: the v1 header plus a wire-flags byte, an optional
// flate-compressed payload, optional small-message coalescing into
// carrier frames, and a CRC32-C trailer over the whole frame.
//
// Layout:
//
//	offset  size  field
//	0       1     Magic (0xA7)
//	1       1     Version (2)
//	2       1     Type
//	3       1     Flags
//	4       4     MsgID (big endian)
//	8       4     Seq
//	12      4     Aux
//	16      2     Src
//	18      1     WireFlags
//	19      n     payload (flate-compressed when WireCompressed)
//	19+n    4     CRC32-C over bytes [0, 19+n) (big endian)
//
// A WireCarrier frame's (decompressed) payload is a sequence of inner
// packets, each a complete v1 encoding prefixed by its big-endian
// uint16 length. Inner packets are always version 1 — carriers do not
// nest — and the outer header echoes the first inner packet's fields
// with Aux carrying the inner count.
//
// The decode order is magic, version, CRC, then everything else, so
// any single corrupted bit in a v2 frame fails one of the first three
// guards: CRC32-C detects all single- and double-bit errors at these
// frame sizes, and the two bytes it cannot vouch for (a flipped magic
// or version byte) change the frame class and are rejected by the
// strict decoder before any field is trusted.
package packet

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"slices"

	"rmcast/internal/pool"
)

// Version2 marks a checksummed v2 frame.
const Version2 = 2

// V2 frame size constants.
const (
	// HeaderLenV2 is the v1 header plus the wire-flags byte.
	HeaderLenV2 = HeaderLen + 1
	// TrailerLen is the CRC32-C trailer size.
	TrailerLen = 4
	// OverheadV2 is the per-frame cost of v2 over v1.
	OverheadV2 = HeaderLenV2 - HeaderLen + TrailerLen
	// DefaultCompressThreshold is the smallest payload EncodeV2
	// attempts to compress: below it the flate header overhead wins.
	DefaultCompressThreshold = 128
	// DefaultCoalesceMTU is the default carrier-frame budget: an
	// Ethernet payload minus the IP and UDP headers.
	DefaultCoalesceMTU = 1500 - 20 - 8
	// MinCoalesceMTU is the smallest carrier budget there is — one
	// inner packet with an empty payload — and at it no packet that
	// carries data coalesces.
	MinCoalesceMTU = HeaderLenV2 + 2 + HeaderLen + TrailerLen
	// maxInflate bounds decompression output (the UDP maximum): any
	// frame claiming more is corrupt or hostile, not ours.
	maxInflate = 65507
)

// WireFlags annotate a v2 frame (as opposed to Flags, which annotate
// the protocol packet and ride through carriers and snapshots).
type WireFlags uint8

const (
	// WireCompressed marks a flate-compressed payload.
	WireCompressed WireFlags = 1 << iota
	// WireCarrier marks a coalesced frame of length-prefixed inner
	// packets.
	WireCarrier

	wireFlagsKnown = WireCompressed | WireCarrier
)

// V2 decoding errors.
var (
	ErrBadCRC         = errors.New("packet: CRC mismatch")
	ErrBadWireFlags   = errors.New("packet: unknown wire flags")
	ErrBadCarrier     = errors.New("packet: malformed carrier frame")
	ErrBadCompression = errors.New("packet: malformed compressed payload")
)

// castagnoli is the CRC32-C polynomial table (hardware-accelerated on
// amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// EncodeV2 serializes p as a v2 frame, compressing the payload when it
// is at least minCompress bytes and flate actually shrinks it
// (minCompress <= 0 disables compression). It returns the frame —
// freshly allocated and owned by the caller — and its uncompressed wire
// length, equal to len(frame) when compression did not apply, so
// callers can account savings without re-deriving them.
func EncodeV2(p *Packet, minCompress int) (frame []byte, rawLen int) {
	b := Batcher{MinCompress: minCompress}
	return b.Encode(p)
}

// sealV2 appends a v2 frame, assembled from a v1 header (its version
// byte is overwritten) and a payload, to dst and returns the extended
// slice; a nil dst gives the frame fresh storage. It is the one place
// the compress-if-it-shrinks rule lives: plain frames and carriers
// alike deflate a payload of at least minCompress bytes and keep the
// result only when it is smaller. payload must not overlap dst's
// spare capacity.
func sealV2(dst, hdr []byte, wf WireFlags, payload []byte, minCompress int) []byte {
	if minCompress > 0 && len(payload) >= minCompress {
		st := getFlate()
		defer flateFree.Put(st) // after the copy below: c aliases st's scratch
		if c := st.deflate(payload); len(c) < len(payload) {
			payload = c
			wf |= WireCompressed
		}
	}
	off := len(dst)
	n := HeaderLenV2 + len(payload) + TrailerLen
	// slices.Grow, not append of a make: the race detector's build
	// turns off the compiler's in-place extension, so that would
	// allocate the make every frame. Every byte of b is written below.
	dst = slices.Grow(dst, n)[:off+n]
	b := dst[off:]
	copy(b, hdr[:HeaderLen])
	b[1] = Version2
	b[HeaderLenV2-1] = byte(wf)
	copy(b[HeaderLenV2:], payload)
	binary.BigEndian.PutUint32(b[n-TrailerLen:], crc32.Checksum(b[:n-TrailerLen], castagnoli))
	return dst
}

// DecodeFrameV2 is the strict decoder for v2 sessions: it accepts only
// v2 frames, so a corrupted version byte cannot demote a frame to the
// checksum-less v1 path. It calls emit for each logical packet the
// frame carries: once for a plain frame, once per inner packet for a
// carrier. Emitted packets and their payloads are read-only borrows,
// valid only during the emit call: the payload aliases b or a pooled
// inflate memo that later decodes of an identical frame return again,
// and every emit of one frame passes the same *Packet, overwritten in
// between. Handlers must not write to a payload, and handlers that
// retain data must copy it (see Clone). Returns without calling emit
// on any error.
func DecodeFrameV2(b []byte, emit func(*Packet)) error {
	return DecodeFrameV2Into(new(Packet), b, emit)
}

// DecodeFrameV2Into is DecodeFrameV2 emitting from the caller's scratch
// packet p instead of a fresh one, so a transport that keeps one
// scratch per node decodes without allocating. Payloads are read-only
// borrows, as for DecodeFrameV2. p's contents after the call are
// unspecified.
func DecodeFrameV2Into(p *Packet, b []byte, emit func(*Packet)) error {
	if len(b) < HeaderLenV2+TrailerLen {
		return ErrTruncated
	}
	if b[0] != Magic {
		return ErrBadMagic
	}
	if b[1] != Version2 {
		return ErrBadVersion
	}
	body := b[:len(b)-TrailerLen]
	if crc32.Checksum(body, castagnoli) != binary.BigEndian.Uint32(b[len(b)-TrailerLen:]) {
		return ErrBadCRC
	}
	if !Type(b[2]).Valid() {
		return ErrBadType
	}
	wf := WireFlags(b[HeaderLenV2-1])
	if wf&^wireFlagsKnown != 0 {
		return ErrBadWireFlags
	}
	payload := body[HeaderLenV2:]
	if wf&WireCompressed != 0 {
		st := getFlate()
		defer flateFree.Put(st) // after emit: the payload aliases st's memo
		var err error
		if payload, err = st.inflate(payload); err != nil {
			return err
		}
	}
	if wf&WireCarrier != 0 {
		return decodeCarrier(p, payload, emit)
	}
	p.setHeader(b)
	p.Payload = nil
	if len(payload) > 0 {
		p.Payload = payload
	}
	emit(p)
	return nil
}

// decodeCarrier walks a carrier payload, emitting each inner packet
// from p. The whole carrier is validated before the first emit — one
// pass over the length prefixes and inner headers — so a malformed
// tail cannot deliver a prefix.
func decodeCarrier(p *Packet, payload []byte, emit func(*Packet)) error {
	if len(payload) == 0 {
		return ErrBadCarrier
	}
	for off := 0; off < len(payload); {
		if off+2 > len(payload) {
			return ErrBadCarrier
		}
		l := int(binary.BigEndian.Uint16(payload[off:]))
		off += 2
		if off+l > len(payload) || DecodeInto(p, payload[off:off+l]) != nil {
			return ErrBadCarrier
		}
		off += l
	}
	for off := 0; off < len(payload); {
		l := int(binary.BigEndian.Uint16(payload[off:]))
		off += 2
		_ = DecodeInto(p, payload[off:off+l]) // validated by the first pass
		emit(p)
		off += l
	}
	return nil
}

// Clone returns a deep copy of p: the copy's Payload shares no storage
// with the original, so it outlives the decode buffer. This is how a
// handler retains a packet emitted by DecodeFrameV2 (or returned by
// Decode) past its borrow window.
func (p *Packet) Clone() *Packet {
	q := *p
	if len(p.Payload) > 0 {
		q.Payload = append([]byte(nil), p.Payload...)
	}
	return &q
}

// flateState is the reusable compression state one frame borrows: a
// flate writer and reader, each reset per frame instead of rebuilt (a
// fresh flate.Writer alone allocates about 1.2 MB), deflate's scratch
// buffer, and a one-entry memo of the last frame inflated — a copy of
// its compressed bytes and the inflated output. Every receiver of a
// multicast frame decodes the same compressed bytes, so in a process
// that runs them all (the simulator) the memo turns every inflate of a
// frame but the first into one bytes.Equal. The key is the content,
// never the slice: transports recycle their receive buffers.
//
// Frames never alias deflate's scratch — sealV2 copies out of it. A
// decoded payload aliases the memo's output, read-only, for the
// duration of emit, and successive decodes of an identical frame share
// it. A handler that encodes or decodes from inside emit draws a second
// state.
//
// States live on flateFree, a LIFO free list, not a sync.Pool: a state
// is built once and never discarded, so its cost is paid once rather
// than after every GC, and the next decode draws the state whose memo
// was just filled. The list retains one state (about 1.24 MB) per
// encoder or decoder that ever ran concurrently in the process.
type flateState struct {
	w   *flate.Writer
	r   io.ReadCloser // a flate.Resetter
	src bytes.Reader
	lim io.LimitedReader
	buf bytes.Buffer // deflate's output

	memo bool         // key and out hold a successful inflate
	key  []byte       // the compressed bytes last inflated
	out  bytes.Buffer // their inflated form
}

// flateFree is the process's free list of states. A caller must not use
// a state, or any slice it lent, once it has put it back.
var flateFree pool.List[*flateState]

// getFlate takes the most recently returned state, or builds one.
func getFlate() *flateState {
	if st, ok := flateFree.Get(); ok {
		return st
	}
	return newFlateState()
}

func newFlateState() *flateState {
	st := new(flateState)
	st.w, _ = flate.NewWriter(&st.buf, flate.BestSpeed) // errs only on an invalid level
	st.r = flate.NewReader(&st.src)
	return st
}

// deflate compresses src into st's scratch. Writer.Reset is specified
// as equivalent to NewWriter, so the bytes match a fresh writer's.
func (st *flateState) deflate(src []byte) []byte {
	st.buf.Reset()
	st.w.Reset(&st.buf)
	if _, err := st.w.Write(src); err != nil {
		return src // a bytes.Buffer write cannot fail; fail open to raw
	}
	if err := st.w.Close(); err != nil {
		return src
	}
	return st.buf.Bytes()
}

// inflate decompresses src, refusing output beyond maxInflate. When src
// equals the input of st's last successful inflate it returns that
// output again without running flate. Only successes are memoised, so a
// malformed stream or a bomb is rejected on every decode.
func (st *flateState) inflate(src []byte) ([]byte, error) {
	if st.memo && bytes.Equal(src, st.key) {
		return st.out.Bytes(), nil
	}
	st.memo = false
	st.out.Reset()
	st.src.Reset(src)
	if err := st.r.(flate.Resetter).Reset(&st.src, nil); err != nil {
		return nil, ErrBadCompression
	}
	st.lim = io.LimitedReader{R: st.r, N: maxInflate + 1}
	n, err := st.out.ReadFrom(&st.lim)
	if err != nil || n > maxInflate {
		return nil, ErrBadCompression
	}
	st.key = append(st.key[:0], src...)
	st.memo = true
	return st.out.Bytes(), nil
}
