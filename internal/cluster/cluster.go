// Package cluster builds the paper's experimental testbed in simulation
// and runs reliable multicast sessions on it.
//
// The default topology is Figure 7 of the paper: 31 Pentium III hosts on
// two 100 Mbps store-and-forward switches — the sender P0 and receivers
// P1..P15 on switch A, receivers P16..P30 on switch B, with a single
// 100 Mbps trunk between the switches. A single-switch variant and a
// shared CSMA/CD bus variant support the ablation experiments.
package cluster

import (
	"fmt"
	"sync"
	"time"

	"rmcast/internal/core"
	"rmcast/internal/ethernet"
	"rmcast/internal/faults"
	"rmcast/internal/ipnet"
	"rmcast/internal/metrics"
	"rmcast/internal/pool"
	"rmcast/internal/rng"
	"rmcast/internal/sim"
	"rmcast/internal/topo"
	"rmcast/internal/trace"
)

// Port is the UDP port every protocol endpoint binds.
const Port = 5010

// Topology selects the physical network layout.
type Topology int

const (
	// TwoSwitch is the paper's Figure 7 layout.
	TwoSwitch Topology = iota
	// SingleSwitch puts every host on one switch.
	SingleSwitch
	// SharedBus is a single CSMA/CD collision domain (the paper's
	// shared-media discussion).
	SharedBus
)

func (t Topology) String() string {
	switch t {
	case TwoSwitch:
		return "two-switch"
	case SingleSwitch:
		return "single-switch"
	case SharedBus:
		return "shared-bus"
	default:
		return fmt.Sprintf("topology(%d)", int(t))
	}
}

// Config describes the simulated testbed.
type Config struct {
	// NumReceivers is the group size; the cluster has NumReceivers+1 hosts.
	NumReceivers int
	// Topology is the physical layout (legacy enum). Ignored when Topo
	// is set, except that SharedBus conflicts with it.
	Topology Topology
	// Topo, when non-nil, is the declarative switch fabric to build
	// (see internal/topo): single switch, the paper's two-switch
	// testbed, star-of-stars, or fat-tree, with per-link speeds and
	// trunk oversubscription. The canned topo.TwoSwitchSpec and
	// topo.SingleSpec reproduce the legacy enum layouts wire-for-wire.
	Topo *topo.Spec
	// Costs is the per-host CPU cost model.
	Costs ipnet.CostModel
	// ReceiverCosts, when non-nil, overrides Costs on the receiver
	// hosts (1..N) only — e.g. to model compute-bound applications that
	// drain their sockets slowly.
	ReceiverCosts *ipnet.CostModel
	// LinkRate is the port speed.
	LinkRate ethernet.Rate
	// Propagation is the per-link propagation delay.
	Propagation time.Duration
	// ForwardDelay is the per-frame switch processing latency.
	ForwardDelay time.Duration
	// SwitchQueueCap bounds each switch output queue in wire bytes.
	SwitchQueueCap int
	// RecvBuf is the per-socket receive buffer in payload bytes.
	RecvBuf int
	// TxQueueCap bounds each host's transmit backlog in wire bytes.
	TxQueueCap int
	// LossRate injects uniform random frame loss on every switch output
	// (zero for the paper's error-free wired LAN).
	LossRate float64
	// Seed drives all randomness (loss injection, bus backoff).
	Seed uint64
	// Deadline aborts a session after this much virtual time.
	Deadline time.Duration
	// WallLimit aborts a session after this much real time, catching
	// simulations that livelock (events firing forever without virtual
	// time passing the Deadline fast enough). Zero means 2 minutes.
	WallLimit time.Duration
	// Faults, when non-nil, is the fault schedule applied to the run:
	// receiver crashes, stalls, link flaps, and burst-loss windows.
	Faults *faults.Schedule
	// Trace, when non-nil, records every protocol packet event.
	Trace *trace.Buffer
	// OnDeliver, when non-nil, is invoked at the instant a receiver's
	// protocol endpoint delivers a complete message — every time it
	// happens, including (buggy) repeat deliveries, which is exactly what
	// the invariant checkers subscribe to it for. The payload is valid
	// only during the call and read-only: the hook must not retain or
	// mutate it. On a verified delivery — every packet matched the
	// run's message — it is that message itself (Message, or Run's
	// MakeMessage copy); otherwise it is the receiver's own buffer,
	// which Run recycles on return.
	OnDeliver func(rank core.NodeID, at time.Duration, payload []byte)
	// Metrics, when non-nil, is the metrics session packet-level events
	// are counted into. Run installs a fresh session when nil, so every
	// Result carries a populated snapshot.
	Metrics *metrics.Session
	// Message, when non-nil, replaces the MakeMessage(msgSize) payload
	// (msgSize is then ignored in favor of len(Message)). Workload
	// generators use it to transfer compressible or structured content.
	Message []byte
	// RxMangle, when non-nil, intercepts every frame arriving at a node
	// before decoding: it receives the destination rank and the wire
	// bytes and returns the frame to decode instead, or nil to drop it.
	// The input is valid only during the call — it is the sender's
	// pooled buffer, recycled once every receiver is done with it — and
	// may be shared with other receivers of the same multicast, so the
	// hook must neither keep nor mutate it in place: corruption
	// injectors return a modified copy.
	RxMangle func(rank int, frame []byte) []byte
	// CountWire opts a v1 session into per-frame wire accounting
	// (metrics wire_frames/wire_bytes), the baseline side of v1-vs-v2
	// bytes-on-wire comparisons. v2 sessions always count; the default
	// v1 path skips counting so golden snapshots stay byte-identical.
	CountWire bool
	// Shards, when >= 2, runs the simulation on that many conservatively
	// synchronized shards (one goroutine each), partitioned along the
	// fabric's host-bearing switch domains; 0 or 1 is the serial event
	// loop, unchanged. Sharded runs are byte-identical to serial ones
	// (same traces, digests, and results) but need a switched topology
	// with positive Propagation, at most MaxShards shards, and a fault
	// schedule without progress triggers or burst windows. The TCP
	// baseline always runs serially.
	Shards int

	// hostCosts is the per-host override installed by NewWithHostCosts.
	hostCosts func(host int) *ipnet.CostModel
}

// Default returns the calibrated paper testbed for n receivers.
func Default(n int) Config {
	return Config{
		NumReceivers:   n,
		Topology:       TwoSwitch,
		Costs:          ipnet.DefaultCosts(),
		LinkRate:       ethernet.Rate100Mbps,
		Propagation:    time.Microsecond,
		ForwardDelay:   5 * time.Microsecond,
		SwitchQueueCap: 256 * 1024,
		RecvBuf:        64 * 1024,
		TxQueueCap:     512 * 1024,
		Seed:           1,
		Deadline:       2 * time.Minute,
		WallLimit:      2 * time.Minute,
	}
}

// TCPCosts returns the kernel-path cost model used for the TCP baseline:
// no user-level protocol engine, so per-packet costs are far lower.
func TCPCosts() ipnet.CostModel {
	return ipnet.CostModel{
		SendSyscall:       8 * time.Microsecond,
		SendPerByteNs:     3.0,
		RecvSyscall:       6 * time.Microsecond,
		RecvPerByteNs:     3.0,
		FragOverhead:      5 * time.Microsecond,
		UserCopyPerByteNs: 0,
		TimerOverhead:     5 * time.Microsecond,
	}
}

// Cluster is a built testbed.
type Cluster struct {
	Sim   *sim.Simulator
	Cfg   Config
	Hosts []*ipnet.Host // index = NodeID (0 is the sender)

	Switches []*ethernet.Switch
	Bus      *ethernet.Bus
	group    ipnet.Addr
	rand     *rng.Rand
	inj      *injector
	sh       *shardState // nil: serial execution
	// pools are the network buffer pools, one per simulator: index 0 on
	// the serial engine, the shard index on the sharded one.
	pools []*ipnet.Pool
}

// netPools is the process's free list of network buffer pools. New
// takes one per simulator and Run and RunMulti hand them back when the
// run is over, so a run draws its datagrams, frames, payload copies and
// reassembly buffers from what an earlier run returned instead of
// growing every pool again. The list holds at most as many pools as
// simulators the process ever ran at once.
var netPools pool.List[*ipnet.Pool]

// takePools takes n pools, making any the list lacks.
func takePools(n int) []*ipnet.Pool {
	ps := make([]*ipnet.Pool, n)
	for i := range ps {
		if ps[i], _ = netPools.Get(); ps[i] == nil {
			ps[i] = new(ipnet.Pool)
		}
	}
	return ps
}

// recycle hands the cluster's network buffers and its serial
// simulator back for later runs. Only a one-shot run calls it, once it
// is over: every host returns the datagrams and fragment groups it
// still holds to its pool (in address order, so the free lists come
// out the same every time), then the pools go on netPools and the
// simulator, emptied, on sim's spare list. Buffers that pending events
// still hold die with those events. The sharded engine's simulators are
// not recycled. A Session's cluster is never recycled, because its
// hosts are the caller's.
func (c *Cluster) recycle() {
	for _, h := range c.Hosts {
		h.Reclaim()
	}
	if c.sh == nil {
		c.Sim.Release()
	}
	for _, p := range c.pools {
		netPools.Put(p)
	}
}

// Sharded reports whether the cluster executes on multiple shards.
func (c *Cluster) Sharded() bool { return c.sh != nil }

// NewWithHostCosts builds the testbed with a per-host cost override:
// costsFor(host) may return a replacement cost model for that host or
// nil to keep cfg.Costs. Used to model individual stragglers.
func NewWithHostCosts(cfg Config, costsFor func(host int) *ipnet.CostModel) (*Cluster, error) {
	cfg.hostCosts = costsFor
	return New(cfg)
}

// fabric resolves the switched fabric the config describes: the
// declarative Topo when set, else the Topology enum's canned spec. Nil
// means the shared bus, which has no switches to describe.
func (cfg Config) fabric() *topo.Spec {
	if cfg.Topo != nil {
		return cfg.Topo
	}
	var s topo.Spec
	switch cfg.Topology {
	case SharedBus:
		return nil
	case SingleSwitch:
		s = topo.SingleSpec()
	default:
		s = topo.TwoSwitchSpec()
	}
	return &s
}

// shapeKey is what a topo.Layout depends on.
type shapeKey struct {
	spec  topo.Spec
	hosts int
	rate  ethernet.Rate
}

// lastLayout is the layout of the shape most recently laid out. A
// Layout is never written once Spec.Layout returns it, so every cluster
// of one shape, on any goroutine, shares it; one entry serves repeated
// runs and sweeps that repeat a shape.
var lastLayout struct {
	sync.Mutex
	key    shapeKey
	layout *topo.Layout
}

// layout returns the config's fabric laid out for its hosts, nil for
// the shared bus.
func (cfg Config) layout() (*topo.Layout, error) {
	spec := cfg.fabric()
	if spec == nil {
		return nil, nil
	}
	k := shapeKey{*spec, cfg.NumReceivers + 1, cfg.LinkRate}
	lastLayout.Lock()
	l := lastLayout.layout
	hit := l != nil && lastLayout.key == k
	lastLayout.Unlock()
	if hit {
		return l, nil
	}
	l, err := spec.Layout(k.hosts, k.rate)
	if err != nil {
		return nil, err
	}
	lastLayout.Lock()
	lastLayout.key, lastLayout.layout = k, l
	lastLayout.Unlock()
	return l, nil
}

// New builds the testbed: hosts wired to the configured topology, all
// joined to one multicast group. Every host on one simulator shares a
// network buffer pool taken from the process's free list.
func New(cfg Config) (*Cluster, error) {
	if cfg.NumReceivers < 1 {
		return nil, fmt.Errorf("cluster: NumReceivers must be >= 1")
	}
	if cfg.Deadline == 0 {
		cfg.Deadline = 2 * time.Minute
	}
	if cfg.WallLimit == 0 {
		cfg.WallLimit = 2 * time.Minute
	}
	// Resolve the fabric spec and layout up front: the shard partitioner
	// needs them before any simulator, host, or switch exists.
	if cfg.Topo != nil && cfg.Topology == SharedBus {
		return nil, fmt.Errorf("cluster: Topo and the shared-bus topology are mutually exclusive")
	}
	layout, err := cfg.layout()
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	c := &Cluster{
		Cfg:   cfg,
		group: ipnet.Group(1),
		rand:  rng.New(rng.Mix(cfg.Seed, 0xC1A5)),
	}
	if cfg.Shards > 1 {
		if err := c.initShards(layout); err != nil {
			return nil, err
		}
		c.pools = takePools(cfg.Shards)
	} else {
		c.Sim = sim.New()
		c.pools = takePools(1)
	}
	if cfg.Faults != nil {
		inj, err := c.newInjector(cfg.Faults)
		if err != nil {
			return nil, err
		}
		c.inj = inj
	}
	n := cfg.NumReceivers + 1
	for i := 0; i < n; i++ {
		costs := cfg.Costs
		if i > 0 && cfg.ReceiverCosts != nil {
			costs = *cfg.ReceiverCosts
		}
		if cfg.hostCosts != nil {
			if override := cfg.hostCosts(i); override != nil {
				costs = *override
			}
		}
		h := ipnet.NewHost(c.simForHost(i), ipnet.HostConfig{
			Addr:       ipnet.Addr(i),
			Costs:      costs,
			TxQueueCap: cfg.TxQueueCap,
			RecvBuf:    cfg.RecvBuf,
			Seed:       cfg.Seed,
			Pool:       c.poolForHost(i),
		})
		h.JoinGroup(c.group)
		c.Hosts = append(c.Hosts, h)
	}
	if layout != nil {
		c.buildFabric(layout)
	} else {
		c.buildBus()
	}
	if c.inj != nil {
		c.inj.arm(cfg.Faults)
	}
	return c, nil
}

func (c *Cluster) switchConfig(name string) ethernet.SwitchConfig {
	return ethernet.SwitchConfig{
		Name:            name,
		ForwardDelay:    c.Cfg.ForwardDelay,
		PortRate:        c.Cfg.LinkRate,
		PortPropagation: c.Cfg.Propagation,
		PortQueueCap:    c.Cfg.SwitchQueueCap,
	}
}

// buildFabric walks a topo.Layout over the ethernet primitives in the
// layout's deterministic order: switches, then host ports in rank
// order, then trunks, then forwarding tables and loss injection. The
// canned two-switch/single-switch layouts reproduce the legacy builder
// object-for-object, which is what keeps the golden digests stable.
func (c *Cluster) buildFabric(l *topo.Layout) {
	sws := make([]*ethernet.Switch, len(l.Switches))
	for i, ss := range l.Switches {
		scfg := c.switchConfig(ss.Name)
		scfg.PortRate = ss.Rate
		sws[i] = ethernet.NewSwitch(c.simForSwitch(i), scfg)
		c.Switches = append(c.Switches, sws[i])
	}
	hostPorts := make([]*ethernet.SwitchPort, len(c.Hosts))
	for i, h := range c.Hosts {
		p, tx := sws[l.HostSwitch[i]].AttachPort(c.attachRecv(i, h))
		hostPorts[i] = p
		h.SetTx(c.attachTx(i, tx))
	}
	trunkPorts := make([][2]*ethernet.SwitchPort, len(l.Trunks))
	for t, tr := range l.Trunks {
		tcfg := ethernet.TxConfig{
			Rate:        tr.Rate,
			Propagation: c.Cfg.Propagation,
			QueueCap:    c.Cfg.SwitchQueueCap,
		}
		var pa, pb *ethernet.SwitchPort
		if c.sh != nil && c.sh.part.SwitchShard[tr.A] != c.sh.part.SwitchShard[tr.B] {
			pa, pb = c.connectPortalTrunk(sws, tr.A, tr.B, tcfg)
		} else {
			pa, pb = sws[tr.A].ConnectTrunk(sws[tr.B], tcfg, tcfg)
		}
		if !tr.Flood {
			// Redundant fat-tree paths: pruned from the flood spanning
			// tree so multicast cannot loop; unicast still uses them.
			pa.SetFloodBlock(true)
			pb.SetFloodBlock(true)
		}
		trunkPorts[t] = [2]*ethernet.SwitchPort{pa, pb}
	}
	// Highest rank first, so each switch's first Learn sizes its table.
	for s, sw := range sws {
		for i := len(c.Hosts) - 1; i >= 0; i-- {
			p := hostPorts[i]
			if l.HostSwitch[i] != s {
				t := l.Route(s, i)
				if t < 0 {
					continue
				}
				p = trunkPorts[t][0]
				if l.Trunks[t].B == s {
					p = trunkPorts[t][1]
				}
			}
			sw.Learn(c.Hosts[i].EthernetAddr(), p)
		}
	}
	if c.Cfg.LossRate > 0 {
		for _, sw := range c.Switches {
			for i := 0; i < sw.NumPorts(); i++ {
				if out := sw.Port(i).Out(); out != nil {
					out.DropFn = c.lossFn()
				}
			}
		}
	}
}

func (c *Cluster) buildBus() {
	bc := ethernet.DefaultBusConfig()
	bc.Rate = c.Cfg.LinkRate
	bc.Seed = c.Cfg.Seed
	bc.StationQueueCap = c.Cfg.TxQueueCap
	c.Bus = ethernet.NewBus(c.Sim, bc)
	for i, h := range c.Hosts {
		// NIC-level group filtering happens in Host.RecvFrame, so the
		// station accepts all multicast frames.
		st := c.Bus.Attach(h.EthernetAddr(), c.attachRecv(i, h), nil)
		h.SetTx(c.attachTx(i, st))
	}
}

// lossFn returns a frame-drop function with the configured loss rate.
func (c *Cluster) lossFn() func(*ethernet.Frame) bool {
	r := c.rand.Fork()
	p := c.Cfg.LossRate
	return func(*ethernet.Frame) bool { return r.Bool(p) }
}
