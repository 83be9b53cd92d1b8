package main

import (
	"sort"
	"sync"

	"rmcast/internal/packet"
	"rmcast/internal/trace"
)

// mixKey is one class of protocol packet: what the codec rigs need to
// rebuild a packet of the same shape.
type mixKey struct {
	Type  packet.Type
	Flags packet.Flags
	Len   int  // payload bytes
	Mcast bool // group-addressed (sends only)
}

// mixCounter folds the packet events of a workload's own run — read
// through cluster.Config.Trace, live.Config.Trace or LoopResult.Trace —
// into per-class counts, so the isolated-layer drivers replay the mix
// the workload really produced and the cost model knows how many
// encodes, decodes and datagrams of each size one operation is. A nil
// counter records nothing.
type mixCounter struct {
	// mu orders the sink calls of live UDP nodes (their goroutines)
	// against clear and freeze on the driving goroutine.
	mu    sync.Mutex
	sends map[mixKey]int // Send and SendMC events: one encode, one datagram each
	recvs map[mixKey]int // Recv events: one decode each
	// live holds the buffers handed to live UDP nodes. Nobody flushes
	// those for us, and their sinks run on node goroutines, so the
	// counts may be read only after the nodes are closed and settle ran.
	live []*trace.Buffer
	// frozen stops the counting once the fixed number of operations the
	// mix is taken over has run; later traced operations still pay for
	// the program's tracing, which is what the overhead number wants.
	frozen bool
}

func (m *mixCounter) freeze() {
	m.mu.Lock()
	m.frozen = true
	m.mu.Unlock()
}

func newMixCounter() *mixCounter {
	return &mixCounter{sends: map[mixKey]int{}, recvs: map[mixKey]int{}}
}

// buffer returns a trace buffer that streams every event into the
// counter. shared asks for the mutex-guarded kind live UDP nodes need;
// its sink runs under that one lock, which also serialises the counter.
func (m *mixCounter) buffer(shared bool) *trace.Buffer {
	b := trace.New(1)
	if shared {
		b = trace.NewShared(1)
		m.live = append(m.live, b)
	}
	b.SetSink(0, m.addEvents)
	return b
}

// settle delivers the final partial batches of closed live nodes.
func (m *mixCounter) settle() {
	for _, b := range m.live {
		b.Flush()
	}
	m.live = nil
}

func (m *mixCounter) addEvents(batch []trace.Event) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.frozen {
		return
	}
	for _, e := range batch {
		k := mixKey{Type: e.Type, Flags: e.Flags, Len: e.Len}
		switch e.Dir {
		case trace.Send:
			m.sends[k]++
		case trace.SendMC:
			k.Mcast = true
			m.sends[k]++
		case trace.Recv:
			m.recvs[k]++
		}
	}
}

// clear forgets what was counted so far (the warm-up operations).
func (m *mixCounter) clear() {
	m.mu.Lock()
	defer m.mu.Unlock()
	clear(m.sends)
	clear(m.recvs)
}

func total(m map[mixKey]int) int {
	n := 0
	for _, c := range m {
		n += c
	}
	return n
}

// sortedKeys orders classes so every replay visits them identically.
func sortedKeys(m map[mixKey]int) []mixKey {
	keys := make([]mixKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Type != b.Type {
			return a.Type < b.Type
		}
		if a.Len != b.Len {
			return a.Len < b.Len
		}
		if a.Flags != b.Flags {
			return a.Flags < b.Flags
		}
		return !a.Mcast && b.Mcast
	})
	return keys
}

// sampled is one packet of a replay sample.
type sampled struct {
	p     *packet.Packet
	mcast bool
}

// sample expands a class histogram into about max packets in the
// histogram's proportions (every class at least once), payloads cut
// from msg at advancing offsets so a compressible message stays
// compressible in the replay.
func sample(classes map[mixKey]int, msg []byte, max int) []sampled {
	n := total(classes)
	if n == 0 {
		return nil
	}
	var out []sampled
	off := 0
	for _, k := range sortedKeys(classes) {
		copies := classes[k] * max / n
		if copies < 1 {
			copies = 1
		}
		size := k.Len
		if size > len(msg) {
			size = len(msg) // never in these workloads; stay in bounds regardless
		}
		for c := 0; c < copies; c++ {
			p := &packet.Packet{Type: k.Type, Flags: k.Flags, MsgID: 1, Seq: uint32(len(out))}
			if size > 0 {
				if off+size > len(msg) {
					off = 0
				}
				p.Payload = msg[off : off+size]
				p.Aux = uint32(off)
				off += size
			}
			out = append(out, sampled{p, k.Mcast})
		}
	}
	return out
}
