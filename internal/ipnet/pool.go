package ipnet

import "rmcast/internal/ethernet"

// Pool holds the network buffers of every host on one simulator: the
// frame-plus-fragment pairs, datagram headers, payload copies and
// reassembly state the send and receive paths move, each on a LIFO free
// list. Plain slices, not sync.Pool: one simulator is single-threaded,
// so a Pool needs no lock, recycles deterministically and survives GC.
// The last release of a buffer returns it here from wherever on the
// simulator it happens — another host's input path, a switch's drop
// site — because every host on the simulator shares the one Pool.
//
// Buffers keep their capacity across recycles, and nothing in a Pool
// belongs to a run: a Pool handed to the next simulation (cluster
// recycles them from run to run) serves an identical run without
// allocating. A free list holds at most the peak number of its buffers
// in use at once.
type Pool struct {
	frames []*txFrame
	dgrams []*datagramBuf
	// payloads is two lists, indexed by payloadClass, so that a small
	// datagram (a control message) never takes, and a fragmented one
	// never has to grow, the other kind's buffer.
	payloads [2][]*payloadBuf
	reasms   []*reasmBuf

	made int
}

// NewPool returns an empty pool.
func NewPool() *Pool { return new(Pool) }

// Made reports how many buffers the pool has had to make because its
// free list was empty: frames, datagrams, payload copies and reassembly
// groups together. A byte buffer grown in place is not counted.
func (p *Pool) Made() int { return p.made }

// payloadBuf is a pooled copy of one sent datagram's payload, shared by
// reference instead of copied again: SendTo's datagram, each in-flight
// fragment frame and each receiver's queued single-fragment datagram
// hold one reference, and the last release returns the buffer to its
// pool. b keeps its capacity across recycles, so the buffers of each
// payloadClass grow to the largest datagram of that class and then stop
// allocating.
type payloadBuf struct {
	owner *Pool
	class int // payloadClass of every payload the buffer holds
	b     []byte
	refs  int
}

// payloadClass is 0 for a payload that fits one fragment, else 1.
func payloadClass(n int) int {
	if n+UDPHeader <= FragPayload {
		return 0
	}
	return 1
}

func (pb *payloadBuf) retain() { pb.refs++ }

func (pb *payloadBuf) release() {
	pb.refs--
	switch {
	case pb.refs == 0:
		free := &pb.owner.payloads[pb.class]
		*free = append(*free, pb)
	case pb.refs < 0:
		panic("ipnet: payload buffer released more often than retained")
	}
}

// getTxFrame pops a pooled frame or makes a new one.
func (p *Pool) getTxFrame() *txFrame {
	if n := len(p.frames) - 1; n >= 0 {
		tf := p.frames[n]
		p.frames = p.frames[:n]
		return tf
	}
	p.made++
	return &txFrame{}
}

// releaseTxFrame is the Frame free hook: it returns the txFrame, and its
// reference to the payload buffer, to the pool of the host that sent it.
func releaseTxFrame(f *ethernet.Frame) {
	frag := f.Payload.(*fragment)
	p := frag.owner
	tf := frag.tf
	frag.pb.release()
	*tf = txFrame{}
	p.frames = append(p.frames, tf)
}

// getDatagram pops a pooled datagram or makes a new one.
func (p *Pool) getDatagram() *datagramBuf {
	if n := len(p.dgrams) - 1; n >= 0 {
		db := p.dgrams[n]
		p.dgrams = p.dgrams[:n]
		return db
	}
	p.made++
	return &datagramBuf{}
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
	p.dgrams = append(p.dgrams, db)
}

// copyPayload copies b into a pooled payload buffer, holding one
// reference for the caller.
func (p *Pool) copyPayload(b []byte) *payloadBuf {
	class := payloadClass(len(b))
	free := &p.payloads[class]
	var pb *payloadBuf
	if n := len(*free) - 1; n >= 0 {
		pb = (*free)[n]
		*free = (*free)[:n]
	} else {
		pb = &payloadBuf{owner: p, class: class}
		p.made++
	}
	pb.b = append(pb.b[:0], b...)
	pb.refs = 1
	return pb
}

// getReasm prepares a pooled fragment group for frag's datagram.
func (p *Pool) getReasm(frag *fragment) *reasmBuf {
	var rb *reasmBuf
	if n := len(p.reasms) - 1; n >= 0 {
		rb = p.reasms[n]
		p.reasms = p.reasms[:n]
	} else {
		rb = &reasmBuf{}
		p.made++
	}
	rb.key = reasmKey{src: frag.src, id: frag.id}
	if cap(rb.have) >= frag.count {
		rb.have = rb.have[:frag.count]
		clear(rb.have)
	} else {
		rb.have = make([]bool, frag.count)
	}
	rb.count = 0
	if cap(rb.buf) >= frag.total {
		rb.buf = rb.buf[:frag.total]
	} else {
		rb.buf = make([]byte, frag.total)
	}
	return rb
}

// putReasm recycles rb, whose group expired or whose datagram was read.
func (p *Pool) putReasm(rb *reasmBuf) {
	rb.timer = 0
	p.reasms = append(p.reasms, rb)
}
