package cluster

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"rmcast/internal/core"
	"rmcast/internal/sim"
)

// transfer is one session attached to a cluster: the endpoints built on
// a binding and the record of what they delivered. Run, NewSession and
// RunMulti all attach through it, so they differ only in the binding
// they choose and the stop rule they drive with.
type transfer struct {
	b    *binding
	pcfg core.Config
	msg  []byte
	envs []*env // by rank

	snd         *core.Sender     // nil under raw UDP
	rcvs        []*core.Receiver // by rank; nil under raw UDP
	senderStats func() core.SenderStats
	recvStats   []func() core.ReceiverStats

	startAt, endAt sim.Time
	done           bool
	delivered      [][]byte // by rank
	onDeliver      func(rank core.NodeID, at time.Duration, payload []byte)
}

// attach builds the session's endpoints on b — one env per rank, each
// with a codec for pcfg's wire format, the sender and its receivers wired to
// the binding's metrics — and schedules the sender's Start after start
// of virtual time. pcfg.NumReceivers is forced to the binding's size.
// onDeliver, when non-nil, observes every completed delivery with the
// time since the session's start. oneShot marks a transfer whose
// deliveries release hands back (Run, RunMulti): its receivers verify
// each payload against msg instead of copying it (core's
// Receiver.VerifyAgainst), so a delivery that matched is msg itself.
//
// Every endpoint exists before the start event is created: event
// creation order breaks same-instant ties, so it is behaviour.
func (b *binding) attach(pcfg core.Config, msg []byte, start time.Duration,
	onDeliver func(rank core.NodeID, at time.Duration, payload []byte), oneShot bool) (*transfer, error) {
	c := b.c
	n := len(b.hostOf) - 1
	pcfg.NumReceivers = n
	senderSim := c.simForHost(int(b.hostOf[0]))
	t := &transfer{b: b, pcfg: pcfg, msg: msg, envs: make([]*env, n+1),
		startAt: senderSim.Now() + start, delivered: make([][]byte, n+1), onDeliver: onDeliver}
	if c.sh != nil {
		b.sess = len(c.sh.transfers)
		c.sh.transfers = append(c.sh.transfers, t)
	}
	for r := range t.envs {
		t.envs[r] = b.newEnv(core.NodeID(r), pcfg)
	}
	onDone := func() {
		t.done = true
		t.endAt = t.envs[0].host.Now()
	}
	var begin func([]byte)
	if pcfg.Protocol == core.ProtoRawUDP {
		snd, err := core.NewRawSender(t.envs[0], pcfg, onDone)
		if err != nil {
			return nil, err
		}
		t.envs[0].ep, t.senderStats, begin = snd, snd.Stats, snd.Start
		for r := 1; r <= n; r++ {
			rcv, err := core.NewRawReceiver(t.envs[r], pcfg, core.NodeID(r), len(msg), t.deliverFn(r))
			if err != nil {
				return nil, err
			}
			t.envs[r].ep = rcv
			t.recvStats = append(t.recvStats, rcv.Stats)
		}
	} else {
		snd, err := core.NewSender(t.envs[0], pcfg, onDone)
		if err != nil {
			return nil, err
		}
		snd.SetMetrics(b.mx)
		t.envs[0].ep, t.senderStats, begin = snd, snd.Stats, snd.Start
		t.snd = snd
		t.rcvs = make([]*core.Receiver, n+1)
		for r := 1; r <= n; r++ {
			rcv, err := core.NewReceiver(t.envs[r], pcfg, core.NodeID(r), t.deliverFn(r))
			if err != nil {
				return nil, err
			}
			rcv.SetMetrics(b.mx)
			if oneShot {
				rcv.VerifyAgainst(msg)
			}
			t.envs[r].ep = rcv
			t.recvStats = append(t.recvStats, rcv.Stats)
			t.rcvs[r] = rcv
		}
	}
	senderSim.After(start, func() { begin(msg) })
	return t, nil
}

// deliverFn builds receiver rank's completion callback: direct
// emission in serial runs, a shard-log append (merged into the global
// stream at the next window barrier) in sharded ones.
func (t *transfer) deliverFn(rank int) func([]byte) {
	h := t.envs[rank].host
	if sh := t.b.c.sh; sh != nil {
		lg := sh.logFor(t.b.hostOf[rank])
		return func(b []byte) { lg.add(shardEntry{at: h.Now(), sess: t.b.sess, rank: rank, data: b}) }
	}
	return func(b []byte) { t.deliver(rank, h.Now(), b) }
}

// deliver records one receiver's completed delivery.
func (t *transfer) deliver(rank int, at sim.Time, b []byte) {
	t.delivered[rank] = b
	t.b.mx.ObserveCompletion(rank, at-t.startAt)
	if t.onDeliver != nil {
		t.onDeliver(core.NodeID(rank), at-t.startAt, b)
	}
}

// summarise fills res with the session's outcome as of virtual time end
// (the session part: fabric-wide statistics are the caller's) and
// returns the ranks still owed the message — those that neither
// delivered a byte-identical copy nor left the membership.
func (t *transfer) summarise(res *Result, end sim.Time) (missing []core.NodeID) {
	res.Protocol = t.pcfg.Protocol
	res.MsgSize = len(t.msg)
	res.Completed = t.done
	if t.done {
		res.Elapsed = t.endAt - t.startAt
	} else if end > t.startAt {
		res.Elapsed = end - t.startAt
	}
	if res.Elapsed > 0 {
		res.ThroughputMbps = float64(len(t.msg)) * 8 / res.Elapsed.Seconds() / 1e6
	}
	if t.snd != nil {
		res.Failed, res.Left, res.NeverJoined = t.snd.Failed(), t.snd.Left(), t.snd.NeverJoined()
	}
	// Verification exempts the ranks outside the final membership:
	// ejected, departed gracefully, or never admitted. A leaver or
	// joiner that did deliver still counts in Delivered.
	exempt := make([]bool, len(t.delivered))
	for _, out := range [][]core.NodeID{res.Failed, res.Left, res.NeverJoined} {
		for _, r := range out {
			exempt[r] = true
		}
	}
	for r := 1; r < len(t.delivered); r++ {
		if bytes.Equal(t.delivered[r], t.msg) {
			res.Delivered = append(res.Delivered, core.NodeID(r))
		} else if !exempt[r] {
			missing = append(missing, core.NodeID(r))
		}
	}
	res.Verified = len(missing) == 0
	res.SenderStats = t.senderStats()
	for _, f := range t.recvStats {
		res.ReceiverStats = append(res.ReceiverStats, f())
	}
	t.b.mx.SetSenderBusy(t.envs[0].host.Stats().CPUBusy)
	res.Metrics = t.b.mx.Snapshot()
	return missing
}

// release ends a one-shot run's claim on what its receivers delivered:
// every message buffer — held only by a receiver that met a mismatched
// payload — goes back to core's pool for the next run in the process,
// and every session ends. Run and RunMulti call it once summarise has
// verified the bytes; a Session never does, because its Delivered is
// the caller's.
func (t *transfer) release() {
	t.delivered = nil
	for _, rcv := range t.rcvs {
		if rcv != nil {
			rcv.Release()
		}
	}
}

// Session is one reliable multicast transfer on an existing cluster
// with an arbitrary root host. Unlike the one-shot Run helper, sessions
// let any host act as the sender and several sessions (on distinct
// ports) coexist on one simulated cluster — the building block for the
// collective operations in internal/workload.
//
// Protocol ranks are mapped onto hosts: protocol node 0 is the root
// host; protocol ranks 1..N are the remaining hosts in address order.
// Packets are traced and counted into the cluster's Config.Trace and
// Config.Metrics, in rank space, exactly as Run's are.
type Session struct {
	t *transfer

	// Delivered holds each receiver host's delivered message, indexed
	// by host address (nil for the root and for undelivered hosts). The
	// slices are the caller's to keep: unlike Run and RunMulti, whose
	// payloads are valid only inside OnDeliver, a Session never hands
	// its receivers' buffers back for reuse.
	Delivered [][]byte

	// OnDeliver, when set (before the simulator runs), is additionally
	// invoked at each receiver host's delivery instant — the hook
	// higher layers (collectives, total ordering) build on.
	OnDeliver func(host core.NodeID, msg []byte)
}

// NewSession prepares a transfer of msg from root to every other host
// on port. Run the cluster's simulator (or RunToCompletion) afterwards.
func NewSession(c *Cluster, root core.NodeID, port int, pcfg core.Config, msg []byte) (*Session, error) {
	if c.sh != nil {
		// The caller steps c.Sim, which is only shard 0's clock.
		return nil, fmt.Errorf("cluster: sessions on an existing cluster need the serial engine; build it with Shards 0")
	}
	if root < 0 || int(root) >= len(c.Hosts) {
		return nil, fmt.Errorf("cluster: root %d out of range", root)
	}
	s := &Session{Delivered: make([][]byte, len(c.Hosts))}
	b := c.bindRoot(root, port)
	t, err := b.attach(pcfg, msg, 0, func(rank core.NodeID, _ time.Duration, payload []byte) {
		h := core.NodeID(b.hostOf[rank])
		s.Delivered[h] = payload
		if s.OnDeliver != nil {
			s.OnDeliver(h, payload)
		}
	}, false)
	if err != nil {
		return nil, err
	}
	s.t = t
	return s, nil
}

// Done reports whether the root has completed the transfer.
func (s *Session) Done() bool { return s.t.done }

// Close unbinds the session's sockets so the port can be reused.
func (s *Session) Close() {
	for _, e := range s.t.envs {
		e.sock.Close()
	}
}

// RunToCompletion drives the cluster simulator until the session
// finishes or the virtual deadline or wall-clock limit passes,
// returning the elapsed virtual time.
func (s *Session) RunToCompletion() (time.Duration, error) {
	c := s.t.b.c
	begin := c.Sim.Now()
	end, err := c.driveUntil(context.TODO(), begin, s.Done, fmt.Sprintf("session from root %d", s.t.b.hostOf[0]))
	s.t.b.tr.Flush()
	return end - begin, err
}
