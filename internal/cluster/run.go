package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"rmcast/internal/core"
	"rmcast/internal/ethernet"
	"rmcast/internal/ipnet"
	"rmcast/internal/metrics"
	"rmcast/internal/sim"
	"rmcast/internal/unicast"
)

// Result summarizes one simulated multicast session.
type Result struct {
	Protocol core.Protocol
	MsgSize  int
	// Elapsed is the communication time: session start to sender
	// completion (all receivers have delivered by then — their final
	// acknowledgments causally follow delivery).
	Elapsed time.Duration
	// Completed is false only when a deadline (virtual or wall-clock)
	// aborted the session.
	Completed bool
	// Verified is true when every surviving receiver delivered a
	// byte-identical copy of the message. Receivers listed in Failed are
	// exempt: a degraded-but-correct partial delivery still verifies.
	Verified bool
	// Delivered lists the receivers that demonstrably delivered the full
	// message, ascending.
	Delivered []core.NodeID
	// Failed lists the receivers the sender ejected (failure detection)
	// or declared failed (session deadline), in ejection order.
	Failed []core.NodeID
	// Left lists the receivers that departed gracefully (TypeLeave
	// handshake), in departure order. Like Failed, they are exempt from
	// verification — but they cost no ejection.
	Left []core.NodeID
	// NeverJoined lists the receivers that started absent (a join event
	// in the fault schedule) and were never admitted, ascending.
	NeverJoined []core.NodeID
	// ThroughputMbps is payload goodput in megabits per second.
	ThroughputMbps float64

	SenderStats   core.SenderStats
	ReceiverStats []core.ReceiverStats
	HostStats     []ipnet.HostStats
	SwitchStats   []ethernet.SwitchStats
	BusStats      ethernet.BusStats // shared-bus topology only

	// Metrics is the session's metrics snapshot: per-type packet
	// counts, retransmissions, NAKs, ejections, buffer-overflow drops,
	// sender CPU-busy time, and per-receiver completion latency.
	Metrics metrics.Metrics
}

// MakeMessage builds the deterministic test payload used by every
// experiment.
func MakeMessage(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*131 + 17)
	}
	return b
}

// Spec selects what Run executes: one of the reliable multicast
// protocols, the sequential-TCP baseline, or the raw-UDP baseline.
// Build one with ProtoSpec, TCPSpec, or RawUDPSpec.
type Spec struct {
	kind   specKind
	proto  core.Config
	tcp    unicast.Config
	rawPkt int
}

type specKind int

const (
	specZero specKind = iota
	specProto
	specTCP
	specRawUDP
)

// ProtoSpec runs one of the studied reliable multicast protocols (or
// ProtoRawUDP) under cfg.
func ProtoSpec(cfg core.Config) Spec { return Spec{kind: specProto, proto: cfg} }

// TCPSpec runs the Figure 8 baseline: one TCP-like unicast stream per
// receiver, sequentially. The cluster's cost model is replaced by
// TCPCosts.
func TCPSpec(tcp unicast.Config) Spec { return Spec{kind: specTCP, tcp: tcp} }

// RawUDPSpec runs the Figure 9 baseline: unreliable UDP multicast in
// packetSize-byte datagrams.
func RawUDPSpec(packetSize int) Spec { return Spec{kind: specRawUDP, rawPkt: packetSize} }

// String names the transfer the spec describes.
func (s Spec) String() string {
	switch s.kind {
	case specProto:
		return s.proto.Protocol.String()
	case specTCP:
		return "tcp"
	case specRawUDP:
		return "rawudp"
	default:
		return "unset"
	}
}

// Run is the single entry point for simulated transfers: it builds a
// fresh testbed from ccfg and transfers one msgSize-byte message as
// spec directs. The protocol config's NumReceivers is forced to the
// cluster size. The simulation loop aborts at the next checkpoint once
// ctx is done, returning the partial Result and the context's error.
func Run(ctx context.Context, ccfg Config, spec Spec, msgSize int) (*Result, error) {
	switch spec.kind {
	case specProto:
		return runProtocol(ctx, ccfg, spec.proto, msgSize)
	case specTCP:
		return runTCP(ctx, ccfg, spec.tcp, msgSize)
	case specRawUDP:
		return runProtocol(ctx, ccfg, core.Config{
			Protocol:     core.ProtoRawUDP,
			NumReceivers: ccfg.NumReceivers,
			PacketSize:   spec.rawPkt,
		}, msgSize)
	default:
		return nil, fmt.Errorf("cluster: Run called with a zero Spec; use ProtoSpec, TCPSpec, or RawUDPSpec")
	}
}

// errWallLimit is drive's abort when Config.WallLimit trips; its other
// abort is the context's own error.
var errWallLimit = errors.New("cluster: wall-clock limit exceeded")

// drive is the one event loop: it runs the cluster from virtual time
// begin until done reports true (a nil done runs until the fabric
// drains), one event past the virtual deadline, or until a guard trips,
// and returns the final clock with the guard's abort, if any. tick,
// when non-nil, runs before the first step and after every step — the
// hook progress-triggered faults fire from.
//
// The stop rule is the caller's, never the user's: a single transfer
// stops at its sender's completion — nothing later can change its
// Result, and the golden traces pin exactly that event set; a
// multi-session run drains, because its senders sit on several shards
// where no one shard can observe them all, and drain is the one rule
// under which serial and sharded runs execute the same event set.
func (c *Cluster) drive(ctx context.Context, begin sim.Time, done func() bool, tick func()) (sim.Time, error) {
	wallStart := time.Now()
	if c.sh != nil {
		// Progress-triggered faults were rejected at construction, so the
		// sharded engine needs no tick; time-triggered events are already
		// armed on their owning shards.
		return c.driveSharded(ctx, begin, done, wallStart)
	}
	if tick != nil {
		tick() // progress-0 faults fire before the session starts moving
	}
	for steps := 0; c.Sim.Pending() > 0 && (done == nil || !done()); steps++ {
		c.Sim.Step()
		if tick != nil {
			tick()
		}
		if c.Sim.Now()-begin > c.Cfg.Deadline {
			break
		}
		// The wall-clock guard catches livelocked simulations (events
		// firing forever while virtual time crawls); the syscall is too
		// expensive for every step. Cancellation shares the checkpoint.
		if steps&4095 == 4095 {
			if time.Since(wallStart) > c.Cfg.WallLimit {
				return c.Sim.Now(), errWallLimit
			}
			if err := ctx.Err(); err != nil {
				return c.Sim.Now(), err
			}
		}
	}
	return c.Sim.Now(), nil
}

// overrun is the error of a run that did not finish: the context's own
// error when it was canceled, else which limit — wall-clock or virtual
// deadline — stopped it.
func (c *Cluster) overrun(what string, abort error) error {
	switch abort {
	case nil:
		return fmt.Errorf("cluster: %s exceeded virtual deadline %v", what, c.Cfg.Deadline)
	case errWallLimit:
		return fmt.Errorf("cluster: %s exceeded wall-clock limit %v", what, c.Cfg.WallLimit)
	}
	return abort
}

// driveUntil is drive for the callers whose run is nothing but done
// coming true: any other ending is an error naming what did not finish.
func (c *Cluster) driveUntil(ctx context.Context, begin sim.Time, done func() bool, what string) (sim.Time, error) {
	end, abort := c.drive(ctx, begin, done, nil)
	switch {
	case abort != nil || end-begin > c.Cfg.Deadline:
		return end, c.overrun(what, abort)
	case !done():
		return end, fmt.Errorf("cluster: %s stalled (no pending events)", what)
	}
	return end, nil
}

// fabricStats snapshots every host and switch, and totals the datagrams
// lost to full socket buffers.
func (c *Cluster) fabricStats() (hosts []ipnet.HostStats, switches []ethernet.SwitchStats, overflow uint64) {
	for _, h := range c.Hosts {
		hs := h.Stats()
		hosts = append(hosts, hs)
		overflow += hs.SocketDrops
	}
	for _, sw := range c.Switches {
		switches = append(switches, sw.Stats())
	}
	return hosts, switches, overflow
}

// checkWireV2 refuses the one protocol option the sharded engine cannot
// run, before anything is built.
func checkWireV2(ccfg Config, pcfg core.Config) error {
	if pcfg.WireV2 && ccfg.Shards > 1 {
		return fmt.Errorf("cluster: WireV2 does not support sharded execution yet; set Shards to 0")
	}
	return nil
}

// runProtocol executes a reliable multicast (or raw UDP) session.
func runProtocol(ctx context.Context, ccfg Config, pcfg core.Config, msgSize int) (*Result, error) {
	if err := checkWireV2(ccfg, pcfg); err != nil {
		return nil, err
	}
	if f := ccfg.Faults; f != nil && pcfg.Protocol == core.ProtoRawUDP {
		if f.HasChurn() {
			return nil, fmt.Errorf("cluster: raw UDP has no membership; join/leave events need a reliable protocol")
		}
		for _, e := range f.Events {
			if e.ByProgress {
				return nil, fmt.Errorf("cluster: raw UDP has no acknowledged progress; "+
					"use a time trigger instead of %v", e)
			}
		}
	} else if f != nil && f.HasChurn() {
		// Join ranks start the run absent and enter via the handshake.
		pcfg.Absent = nil
		for _, j := range f.Joiners() {
			pcfg.Absent = append(pcfg.Absent, core.NodeID(j))
		}
	}
	if ccfg.Metrics == nil {
		ccfg.Metrics = metrics.NewSession()
	}
	c, err := New(ccfg)
	if err != nil {
		return nil, err
	}
	msg := ccfg.Message
	if msg == nil {
		msg = MakeMessage(msgSize)
	}
	t, err := c.bindRoot(core.SenderID, Port).attach(pcfg, msg, 0, ccfg.OnDeliver)
	if err != nil {
		return nil, err
	}
	// Churn and progress triggers are the reliable protocols' alone (raw
	// UDP refused them above); its time-triggered faults are already armed.
	var tick func()
	if c.inj != nil && t.snd != nil {
		c.inj.onJoin = func(rank int) { t.rcvs[rank].Join() }
		c.inj.onLeave = func(rank int) { t.rcvs[rank].Leave() }
		tick = func() { c.inj.tick(t.snd.Progress()) }
	}
	end, abort := c.drive(ctx, t.startAt, func() bool { return t.done }, tick)
	// The session is over: hand the trace sink its final partial batch so
	// stream consumers (invariant checkers) see exactly the events the
	// metrics session counted.
	ccfg.Trace.Flush()
	res := &Result{}
	var overflow uint64
	res.HostStats, res.SwitchStats, overflow = c.fabricStats()
	if c.Bus != nil {
		res.BusStats = c.Bus.Stats()
	}
	ccfg.Metrics.AddOverflowDrops(overflow)
	missing := t.summarise(res, end)
	t.release()
	c.recycle()
	if abort != nil && abort != errWallLimit {
		return res, abort
	}
	if !res.Completed {
		// Everything not demonstrably delivered counts as failed in the
		// structured error, whether or not the sender got as far as
		// ejecting it.
		return res, &core.PartialResult{Delivered: res.Delivered, Failed: missing,
			Err: c.overrun(fmt.Sprintf("%v session (size=%d)", pcfg.Protocol, len(msg)), abort)}
	}
	return res, nil
}

// runTCP executes the sequential-unicast baseline: the sender transfers
// the message to each receiver in turn over a TCP-like reliable unicast
// stream (what a TCP-based broadcast in an MPI library amounts to). The
// Result's Elapsed covers all transfers end to end.
func runTCP(ctx context.Context, ccfg Config, ucfg unicast.Config, msgSize int) (*Result, error) {
	if ccfg.Shards > 1 {
		return nil, fmt.Errorf("cluster: the sequential TCP baseline runs serially; set Shards to 0")
	}
	ccfg.Costs = TCPCosts()
	if ccfg.Metrics == nil {
		ccfg.Metrics = metrics.NewSession()
	}
	mx := ccfg.Metrics
	c, err := New(ccfg)
	if err != nil {
		return nil, err
	}
	msg := MakeMessage(msgSize)
	// Protocol -1 marks the TCP baseline; callers label it "tcp".
	res := &Result{Protocol: -1, MsgSize: msgSize}

	b := c.bindRoot(core.SenderID, Port)
	delivered := make([][]byte, ccfg.NumReceivers+1)
	envs := make([]*env, ccfg.NumReceivers+1)
	for r := range envs {
		envs[r] = b.newEnv(core.NodeID(r), core.Config{}) // the unicast stream speaks wire v1
	}
	begin := c.Sim.Now()
	for r := 1; r <= ccfg.NumReceivers; r++ {
		r := r
		rcv, err := unicast.NewReceiver(envs[r], ucfg, core.SenderID, func(b []byte) {
			delivered[r] = b
			mx.ObserveCompletion(r, c.Sim.Now()-begin)
		})
		if err != nil {
			return nil, err
		}
		envs[r].ep = rcv
	}

	for r := 1; r <= ccfg.NumReceivers && err == nil; r++ {
		done := false
		snd, serr := unicast.NewSender(envs[0], ucfg, core.NodeID(r), func() { done = true })
		if serr != nil {
			return nil, serr
		}
		envs[0].ep = snd
		c.Sim.After(0, func() { snd.Start(msg) })
		_, err = c.driveUntil(ctx, begin, func() bool { return done },
			fmt.Sprintf("tcp transfer to receiver %d", r))
	}
	if err == nil {
		res.Completed = true
		res.Elapsed = c.Sim.Now() - begin
		if res.Elapsed > 0 {
			res.ThroughputMbps = float64(msgSize) * 8 / res.Elapsed.Seconds() / 1e6
		}
		res.Verified = true
		for r := 1; r <= ccfg.NumReceivers; r++ {
			if !bytes.Equal(delivered[r], msg) {
				res.Verified = false
			}
		}
	}
	ccfg.Trace.Flush()
	var overflow uint64
	res.HostStats, res.SwitchStats, overflow = c.fabricStats()
	c.recycle()
	mx.AddOverflowDrops(overflow)
	mx.SetSenderBusy(res.HostStats[0].CPUBusy)
	res.Metrics = mx.Snapshot()
	return res, err
}
