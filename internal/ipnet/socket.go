package ipnet

import "fmt"

// Socket is a UDP socket: a bounded receive queue drained by the
// application handler at CPU speed. Arrivals beyond the buffer are
// dropped silently, exactly as UDP does — on the paper's wired LAN this
// is where essentially all packet loss comes from.
type Socket struct {
	host    *Host
	port    int
	bufCap  int // payload bytes
	handler func(dg *Datagram)

	// queue is a ring: the n datagrams waiting to be read start at
	// queue[head] and wrap around its end, so a read costs O(1) however
	// deep the queue. It grows only when full, to the size append gives.
	// While n > 0 the first of them is being read (its cost charged):
	// enqueue runs from the IP input event only, never inside a read's
	// handler, so the read that empties the queue is the last one.
	queue   []*datagramBuf
	head, n int
	queued  int
}

// discard recycles every datagram waiting to be read and empties the
// queue.
func (s *Socket) discard() {
	for i := 0; i < s.n; i++ {
		s.host.pool.putDatagram(s.queue[(s.head+i)%len(s.queue)])
	}
	s.queue, s.head, s.n, s.queued = nil, 0, 0, 0
}

// Bind creates a socket on port with the host's default receive buffer.
// handler runs (on the host CPU) for every datagram the application
// reads. The datagram and its payload are only valid for the duration of
// the call: both are pooled and recycled as soon as the handler returns,
// and the payload is the sender's buffer, shared read-only with every
// other receiver of the same multicast, so a handler that needs the
// bytes must copy them and must not write to them. Binding a
// bound port panics: it is always a wiring bug.
func (h *Host) Bind(port int, handler func(dg *Datagram)) *Socket {
	return h.BindBuf(port, h.cfg.RecvBuf, handler)
}

// BindBuf is Bind with an explicit receive buffer size in bytes
// (the SO_RCVBUF of the model).
func (h *Host) BindBuf(port, bufBytes int, handler func(dg *Datagram)) *Socket {
	if _, dup := h.sockets[port]; dup {
		panic(fmt.Sprintf("ipnet: port %d already bound on host %d", port, h.cfg.Addr))
	}
	if handler == nil {
		panic("ipnet: Bind with nil handler")
	}
	s := &Socket{host: h, port: port, bufCap: bufBytes, handler: handler}
	h.sockets[port] = s
	return s
}

// Close unbinds the socket and discards queued datagrams.
func (s *Socket) Close() {
	delete(s.host.sockets, s.port)
	s.discard()
}

// Port returns the bound port.
func (s *Socket) Port() int { return s.port }

// SendTo transmits payload to dst:dstPort. The send syscall cost is
// charged to the host CPU; the datagram enters the wire when it
// completes. SendTo copies payload, as a kernel does, into a buffer from
// the host's pool that backs the in-flight fragments and, for a
// single-fragment datagram, every receiver's delivered payload; the
// caller may reuse payload as soon as SendTo returns.
func (s *Socket) SendTo(dst Addr, dstPort int, payload []byte) {
	if len(payload) > MaxDatagram {
		panic(fmt.Sprintf("ipnet: datagram of %d bytes exceeds max %d", len(payload), MaxDatagram))
	}
	h := s.host
	db := take(h.pool, &h.pool.dgrams)
	db.pb = h.pool.copyPayload(payload)
	db.dg = Datagram{
		Src:     h.cfg.Addr,
		Dst:     dst,
		SrcPort: s.port,
		DstPort: dstPort,
		Payload: db.pb.b,
	}
	cost := h.cfg.Costs.SendSyscall + PerByte(len(payload), h.cfg.Costs.SendPerByteNs)
	h.ExecFunc(cost, hostOutput, h, db)
}

// enqueue admits a datagram that completed reassembly, taking ownership
// of db.
func (s *Socket) enqueue(db *datagramBuf) {
	if s.bufCap > 0 && s.queued+len(db.dg.Payload) > s.bufCap {
		s.host.stats.SocketDrops++
		s.host.pool.putDatagram(db)
		return
	}
	if s.n == len(s.queue) {
		// Full: unwrap into the array append grows a full slice to.
		q := append(s.queue[:s.n:s.n], nil)
		q = q[:cap(q)]
		copy(q[copy(q, s.queue[s.head:]):], s.queue[:s.head])
		s.queue, s.head = q, 0
	}
	s.queue[(s.head+s.n)%len(s.queue)] = db
	s.n++
	s.queued += len(db.dg.Payload)
	if s.n == 1 {
		s.drainNext()
	}
}

// drainNext models the application's read loop: one recvfrom per queued
// datagram, serialized on the host CPU.
func (s *Socket) drainNext() {
	if s.n == 0 {
		return
	}
	db := s.queue[s.head]
	h := s.host
	cost := h.cfg.Costs.RecvSyscall + PerByte(len(db.dg.Payload), h.cfg.Costs.RecvPerByteNs)
	h.ExecFunc(cost, socketReadDone, s, db)
}

// socketReadDone fires when the read syscall's CPU charge completes: the
// datagram leaves the socket buffer, the handler consumes it, and the
// pooled datagram is recycled.
func socketReadDone(a, b any) {
	s := a.(*Socket)
	db := b.(*datagramBuf)
	// The socket may have been closed while the read was charged (Close
	// recycles the queue, so db must not be touched on this path).
	if s.n == 0 || s.queue[s.head] != db {
		return
	}
	s.queue[s.head] = nil
	s.head = (s.head + 1) % len(s.queue)
	s.n--
	s.queued -= len(db.dg.Payload)
	h := s.host
	h.stats.RecvDatagrams++
	h.stats.RecvBytes += uint64(len(db.dg.Payload))
	s.handler(&db.dg)
	h.pool.putDatagram(db)
	s.drainNext()
}
