package ipnet

import (
	"rmcast/internal/ethernet"
	"rmcast/internal/pool"
)

// Pool holds the network buffers of every host on one simulator: the
// frame-plus-fragment pairs, datagram headers, payload copies and
// reassembly state the send and receive paths move, each on a LIFO free
// list. The lists are pool.Stacks, with no lock: one simulator is
// single-threaded. They recycle deterministically and survive GC.
// The last release of a buffer returns it here from wherever on the
// simulator it happens — another host's input path, a switch's drop
// site — because every host on the simulator shares the one Pool.
//
// Buffers keep their capacity across recycles, and nothing in a Pool
// belongs to a run: a Pool handed to the next simulation (cluster
// recycles them from run to run) serves an identical run without
// allocating. A free list holds at most the peak number of its buffers
// in use at once. The zero value is an empty pool.
type Pool struct {
	frames pool.Stack[*txFrame]
	dgrams pool.Stack[*datagramBuf]
	// payloads is two lists, indexed by payloadClass, so that a small
	// datagram (a control message) never takes, and a fragmented one
	// never has to grow, the other kind's buffer.
	payloads [2]pool.Stack[*payloadBuf]
	reasms   pool.Stack[*reasmBuf]

	made int
}

// Made reports how many buffers the pool has had to make because its
// free list was empty: frames, datagrams, payload copies and reassembly
// groups together. A byte buffer grown in place is not counted.
func (p *Pool) Made() int { return p.made }

// Idle reports how many buffers are on the pool's free lists: Made, once
// every buffer the pool lent has come back.
func (p *Pool) Idle() int {
	return p.frames.Len() + p.dgrams.Len() + p.payloads[0].Len() + p.payloads[1].Len() + p.reasms.Len()
}

// payloadBuf is a pooled copy of one sent datagram's payload, shared by
// reference instead of copied again: SendTo's datagram, each in-flight
// fragment frame, each receiver's open fragment group and each
// receiver's queued datagram hold one reference, and the last release
// returns the buffer to its pool. b keeps its capacity across recycles,
// so the buffers of each payloadClass grow to the largest datagram of
// that class and then stop allocating.
type payloadBuf struct {
	owner *Pool
	class int // payloadClass of every payload the buffer holds
	b     []byte
	refs  pool.Refs[payloadBuf]
}

// payloadClass is 0 for a payload that fits one fragment, else 1.
func payloadClass(n int) int {
	if n+UDPHeader <= FragPayload {
		return 0
	}
	return 1
}

func (pb *payloadBuf) retain() { pb.refs.Retain() }

func (pb *payloadBuf) release() {
	if pb.refs.Release() {
		pb.owner.payloads[pb.class].Push(pb)
	}
}

// take pops a buffer off free, one of p's lists, or makes one and
// counts it.
func take[T any](p *Pool, free *pool.Stack[*T]) *T {
	if x, ok := free.Pop(); ok {
		return x
	}
	p.made++
	return new(T)
}

// releaseTxFrame is the Frame free hook: it returns the txFrame, and its
// reference to the payload buffer, to the pool of the host that sent it.
func releaseTxFrame(f *ethernet.Frame) {
	frag := f.Payload.(*fragment)
	p := frag.pb.owner
	tf := frag.tf
	frag.pb.release()
	*tf = txFrame{}
	p.frames.Push(tf)
}

// putDatagram recycles db with what its payload aliases: it releases
// its payload buffer reference or recycles its fragment group. The
// header is cleared (it may alias payload memory the pool must not pin).
func (p *Pool) putDatagram(db *datagramBuf) {
	if db.pb != nil {
		db.pb.release()
		db.pb = nil
	}
	if db.rb != nil {
		p.putReasm(db.rb)
		db.rb = nil
	}
	db.dg = Datagram{}
	p.dgrams.Push(db)
}

// copyPayload copies b into a pooled payload buffer, holding one
// reference for the caller.
func (p *Pool) copyPayload(b []byte) *payloadBuf {
	class := payloadClass(len(b))
	pb := take(p, &p.payloads[class])
	pb.owner, pb.class = p, class
	pb.b = append(pb.b[:0], b...)
	pb.refs.Retain()
	return pb
}

// getReasm prepares a pooled fragment group for frag's datagram.
func (p *Pool) getReasm(frag *fragment) *reasmBuf {
	rb := take(p, &p.reasms)
	rb.key = reasmKey{src: frag.src, id: frag.id}
	if cap(rb.have) >= frag.count {
		rb.have = rb.have[:frag.count]
		clear(rb.have)
	} else {
		rb.have = make([]bool, frag.count)
	}
	rb.count = 0
	return rb
}

// putReasm recycles rb — its group expired, was reclaimed or completed,
// or its copied datagram was read — releasing the group's reference to
// the sender's buffer if it still holds one.
func (p *Pool) putReasm(rb *reasmBuf) {
	if rb.pb != nil {
		rb.pb.release()
		rb.pb = nil
	}
	rb.timer, rb.older = 0, nil
	p.reasms.Push(rb)
}
