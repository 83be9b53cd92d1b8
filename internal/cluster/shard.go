package cluster

import (
	"context"
	"fmt"
	"sort"
	"time"

	"rmcast/internal/ethernet"
	"rmcast/internal/faults"
	"rmcast/internal/ipnet"
	"rmcast/internal/sim"
	"rmcast/internal/topo"
	"rmcast/internal/trace"
)

// shardEntry is one logged protocol observation — a trace event or a
// message delivery — recorded by a shard in its own execution order and
// merged into the global stream at the next window barrier.
type shardEntry struct {
	at   sim.Time
	sess int // index into shardState.transfers
	rank int // < 0: trace event; >= 1: delivery by this receiver
	ev   trace.Event
	data []byte
}

// shardLog is one shard's pending observations. Only the shard's
// executing goroutine appends; the coordinator drains it at barriers
// (the window handshake provides the happens-before edges).
type shardLog struct {
	entries []shardEntry
}

func (l *shardLog) add(e shardEntry) { l.entries = append(l.entries, e) }

// shardState holds everything a sharded cluster adds on top of the
// serial one.
type shardState struct {
	group *sim.Group
	part  *topo.Partition
	logs  []*shardLog // indexed by shard

	// transfers are the attached sessions, indexed by the sess their
	// shard-log entries carry; merge emits each entry into its own.
	transfers []*transfer

	scratch []shardEntry
}

// logFor returns the log of the shard that executes host's events.
func (sh *shardState) logFor(host ipnet.Addr) *shardLog {
	return sh.logs[sh.part.HostShard[host]]
}

// initShards validates the configuration for sharded execution and
// builds the shard group. layout is the resolved fabric (nil for the
// shared bus, which cannot shard: every station contends for one
// medium).
func (c *Cluster) initShards(layout *topo.Layout) error {
	cfg := &c.Cfg
	if layout == nil {
		return fmt.Errorf("cluster: sharded execution needs a switched topology, not the shared bus")
	}
	if cfg.Propagation <= 0 {
		return fmt.Errorf("cluster: sharded execution needs positive link propagation (it is the conservative lookahead)")
	}
	if cfg.Faults != nil {
		for _, e := range cfg.Faults.Events {
			if e.ByProgress {
				return fmt.Errorf("cluster: sharded runs cannot trigger faults by sender progress (%v); use a time trigger or run serially", e)
			}
			if e.Kind == faults.Burst {
				return fmt.Errorf("cluster: burst loss windows share state across every switch port; run them serially")
			}
		}
	}
	part, err := layout.Partition(cfg.Shards)
	if err != nil {
		return err
	}
	sh := &shardState{
		group: sim.NewGroup(cfg.Shards, cfg.Propagation),
		part:  part,
	}
	for i := 0; i < cfg.Shards; i++ {
		sh.logs = append(sh.logs, &shardLog{})
	}
	c.sh = sh
	c.Sim = sh.group.Shard(0).Sim()
	return nil
}

// simForHost returns the simulator host i's events run on.
func (c *Cluster) simForHost(i int) *sim.Simulator {
	if c.sh == nil {
		return c.Sim
	}
	return c.sh.group.Shard(c.sh.part.HostShard[i]).Sim()
}

// poolForHost returns the network buffer pool of host i's simulator.
func (c *Cluster) poolForHost(i int) *ipnet.Pool {
	if c.sh == nil {
		return c.pools[0]
	}
	return c.pools[c.sh.part.HostShard[i]]
}

// simForSwitch returns the simulator switch i's events run on.
func (c *Cluster) simForSwitch(i int) *sim.Simulator {
	if c.sh == nil {
		return c.Sim
	}
	return c.sh.group.Shard(c.sh.part.SwitchShard[i]).Sim()
}

// connectPortalTrunk wires a trunk whose endpoints live on different
// shards. It replicates ConnectTrunk's port-creation order exactly
// (A-side port, then B-side port, then the output transmitters), but
// each side's Tx runs on its own shard with zero propagation and a
// Portal peer: serialization, queueing, and drops stay byte-identical
// to a local trunk, and the propagation delay is re-applied as the
// cross-shard posting latency — the group's lookahead.
func (c *Cluster) connectPortalTrunk(sws []*ethernet.Switch, a, b int, cfg ethernet.TxConfig) (*ethernet.SwitchPort, *ethernet.SwitchPort) {
	pa := sws[a].AddPort()
	pb := sws[b].AddPort()
	pcfg := cfg
	pcfg.Propagation = 0
	shA := c.sh.part.SwitchShard[a]
	shB := c.sh.part.SwitchShard[b]
	pa.SetOut(ethernet.NewTx(c.simForSwitch(a), pcfg, c.portal(shA, shB, cfg.Propagation, pb)))
	pb.SetOut(ethernet.NewTx(c.simForSwitch(b), pcfg, c.portal(shB, shA, cfg.Propagation, pa)))
	return pa, pb
}

// portal builds the near end of a cross-shard link: frames are cloned
// out of the sending shard's pool, unpooled, and posted to the far switch port
// with the link's propagation delay.
func (c *Cluster) portal(src, dst int, prop time.Duration, far *ethernet.SwitchPort) *ethernet.Portal {
	s := c.sh.group.Shard(src)
	return &ethernet.Portal{
		Sim:   s.Sim(),
		Delay: prop,
		Clone: ipnet.CloneFrame,
		Deliver: func(at, sent sim.Time, f *ethernet.Frame) {
			s.Post(dst, at, sent, func() { far.RecvFrame(f) })
		},
	}
}

// merge drains every shard log into the global stream. At a window
// barrier all logged entries are strictly older than every future
// event, so the full interleaving is known: concatenating in shard
// order and stable-sorting by timestamp reproduces the serial order
// (shard indices are monotone in host rank — see topo.Partition — so
// the stable tie-break agrees with serial same-instant ordering).
func (sh *shardState) merge() {
	buf := sh.scratch[:0]
	for _, lg := range sh.logs {
		buf = append(buf, lg.entries...)
		lg.entries = lg.entries[:0]
	}
	sort.SliceStable(buf, func(i, j int) bool { return buf[i].at < buf[j].at })
	for i := range buf {
		e := &buf[i]
		if t := sh.transfers[e.sess]; e.rank < 0 {
			t.b.tr.Add(e.ev)
		} else {
			t.deliver(e.rank, e.at, e.data)
		}
		*e = shardEntry{} // drop payload references
	}
	sh.scratch = buf[:0]
}

// driveSharded is drive on the shard group, replicating the serial
// loop's semantics: stop at completion (done, polled on the primary
// shard; nil runs to drain), one event past the virtual deadline, and
// the wall-clock and cancellation checkpoints — here at window barriers
// instead of every 4096 steps.
func (c *Cluster) driveSharded(ctx context.Context, begin sim.Time, done func() bool, wallStart time.Time) (sim.Time, error) {
	now, _, err := c.sh.group.Run(sim.RunConfig{
		Primary:  0,
		Done:     done,
		Deadline: begin + c.Cfg.Deadline,
		Barrier: func() error {
			c.sh.merge()
			if time.Since(wallStart) > c.Cfg.WallLimit {
				return errWallLimit
			}
			return ctx.Err()
		},
	})
	return now, err
}

// MaxShards reports the maximum usable shard count for cfg's topology:
// the number of host-bearing switch domains (0 for the shared bus,
// which cannot shard). CLI front ends use it to resolve `-shards auto`
// and validate explicit counts before any simulation starts.
func MaxShards(cfg Config) int {
	l, err := cfg.layout()
	if l == nil || err != nil {
		return 0
	}
	return l.MaxShards()
}
