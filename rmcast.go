// Package rmcast is a Go library reproducing "An Empirical Study of
// Reliable Multicast Protocols over Ethernet-Connected Networks"
// (Lane, Scott, Yuan — ICPP 2001): four families of reliable multicast
// protocols implemented over IP multicast/UDP, a discrete-event
// simulator of the paper's 31-host two-switch 100 Mbps testbed, a live
// transport over real UDP multicast, and a benchmark harness that
// regenerates every table and figure of the paper's evaluation.
//
// The four protocols (see DESIGN.md for their mechanics):
//
//   - ProtoACK:  every receiver acknowledges every packet
//   - ProtoNAK:  negative acknowledgments plus periodic polling
//   - ProtoRing: rotating acknowledgment responsibility
//   - ProtoTree: flat-tree acknowledgment aggregation of height H
//
// Two ways to run them:
//
// Simulated (deterministic, laptop-scale, the paper's testbed):
//
//	cfg := rmcast.Config{Protocol: rmcast.ProtoNAK, PacketSize: 8000,
//		WindowSize: 50, PollInterval: 43}
//	res, err := rmcast.Run(ctx, rmcast.DefaultSim(30), rmcast.ProtocolSpec(cfg), 2<<20)
//	fmt.Println(res.Elapsed, res.ThroughputMbps, res.Metrics.Retransmissions)
//
// Live (real UDP multicast on a LAN; one process per node):
//
//	node, err := rmcast.NewLiveNode(rmcast.LiveConfig{
//		Group: "239.77.12.5:7412", Rank: 0, Protocol: cfg})
//	err = node.Send(ctx, payload) // rank 0
//	msg, err := node.Recv(ctx)    // ranks 1..N
//
// The experiment harness behind cmd/rmbench is exposed via
// Experiments and RunExperiment.
package rmcast

import (
	"context"

	"rmcast/internal/cluster"
	"rmcast/internal/core"
	"rmcast/internal/exp"
	"rmcast/internal/faults"
	"rmcast/internal/live"
	"rmcast/internal/metrics"
	"rmcast/internal/order"
	"rmcast/internal/topo"
	"rmcast/internal/unicast"
	"rmcast/internal/workload"
)

// Protocol selects a reliable multicast protocol family.
type Protocol = core.Protocol

// The studied protocols.
const (
	ProtoACK    = core.ProtoACK
	ProtoNAK    = core.ProtoNAK
	ProtoRing   = core.ProtoRing
	ProtoTree   = core.ProtoTree
	ProtoRawUDP = core.ProtoRawUDP
)

// ParseProtocol converts a protocol name ("ack", "nak", "ring", "tree",
// "rawudp") to its Protocol value.
func ParseProtocol(s string) (Protocol, error) { return core.ParseProtocol(s) }

// Config carries the protocol parameters shared by the sender and all
// receivers of a session.
type Config = core.Config

// Catchup selects where a late joiner's catch-up snapshots come from
// (Config.JoinCatchup): the sender itself, or a delegate peer.
type Catchup = core.Catchup

// The catch-up sources.
const (
	CatchupSender = core.CatchupSender
	CatchupPeer   = core.CatchupPeer
)

// ParseCatchup converts a catch-up source name ("sender", "peer") to
// its Catchup value.
func ParseCatchup(s string) (Catchup, error) { return core.ParseCatchup(s) }

// NodeID identifies a session participant; 0 is the sender.
type NodeID = core.NodeID

// SimConfig describes the simulated testbed (topology, link rate, CPU
// cost model, buffer sizes, loss injection).
type SimConfig = cluster.Config

// SimResult reports one simulated transfer.
type SimResult = cluster.Result

// Simulated topologies.
const (
	TopologyTwoSwitch    = cluster.TwoSwitch
	TopologySingleSwitch = cluster.SingleSwitch
	TopologySharedBus    = cluster.SharedBus
)

// TopoSpec is a declarative switch fabric: single switch, the paper's
// two-switch testbed, a star-of-stars, or a two-level fat-tree, with
// per-link speeds and trunk oversubscription. Assign one to
// SimConfig.Topo to replace the legacy Topology enum; parse compact
// spec strings like "fattree:4x8x32@1g,trunk=100m" with ParseTopo.
type TopoSpec = topo.Spec

// ParseTopo parses a topology spec string (see internal/topo for the
// grammar): "single", "two-switch", "star:4x16@100m,trunk=1g",
// "fattree:4x8x32@1g,trunk=100m".
func ParseTopo(s string) (TopoSpec, error) { return topo.Parse(s) }

// ScaleForTopology fills cfg's topology-derived scaling knobs (tree
// chain height/layout from the switch domains, multi-ring partitioning
// at ≥256 receivers) where the caller left them zero. Call it before
// Run when simulating large fabrics.
func ScaleForTopology(cfg Config, sim SimConfig) Config {
	return cluster.ScaleForTopology(cfg, sim)
}

// DefaultSim returns the paper's calibrated Figure 7 testbed with n
// receivers.
func DefaultSim(n int) SimConfig { return cluster.Default(n) }

// Metrics is the allocation-light counter snapshot attached to every
// SimResult and queryable from a LiveNode: per-packet-type send/receive
// counts, retransmissions, NAKs, ejections, buffer-overflow drops,
// sender CPU-busy time, and per-receiver completion latency.
type Metrics = metrics.Metrics

// MetricsHistogram is a snapshotted latency histogram inside Metrics.
type MetricsHistogram = metrics.HistogramSnapshot

// Spec selects what a unified Run executes: one of the reliable
// multicast protocols, the sequential-TCP baseline, or the raw-UDP
// baseline. Build one with ProtocolSpec, TCPSpec, or RawUDPSpec.
type Spec = cluster.Spec

// ProtocolSpec runs one of the studied reliable multicast protocols
// (or ProtoRawUDP) under cfg.
func ProtocolSpec(cfg Config) Spec { return cluster.ProtoSpec(cfg) }

// TCPSpec runs the Figure 8 baseline: one TCP-like unicast stream per
// receiver, sequentially.
func TCPSpec(tcp TCPConfig) Spec { return cluster.TCPSpec(tcp) }

// RawUDPSpec runs the Figure 9 baseline: unreliable UDP multicast in
// packetSize-byte datagrams.
func RawUDPSpec(packetSize int) Spec { return cluster.RawUDPSpec(packetSize) }

// Run transfers one size-byte message on a fresh simulated testbed and
// reports timing, throughput, per-layer statistics, and Metrics. It is
// the single entry point for simulated transfers; ctx cancels the
// simulation at its next checkpoint, returning the partial result
// alongside ctx's error.
func Run(ctx context.Context, sim SimConfig, spec Spec, size int) (*SimResult, error) {
	return cluster.Run(ctx, sim, spec, size)
}

// PartialResult is the structured error a session returns when it ends
// without full delivery to the original membership: receivers ejected
// by failure detection (Config.MaxRetries), declared failed at the
// session deadline (Config.SessionDeadline), or outstanding when the
// run aborted. Errors returned by Run and LiveNode.Send unwrap to
// it via errors.As.
type PartialResult = core.PartialResult

// FaultSchedule is a declarative, deterministic set of faults the
// simulator applies to a run: receiver crashes, stall/resume windows,
// link flaps, and burst-loss windows, triggered at a virtual time or at
// a fraction of transfer progress. Assign one to SimConfig.Faults.
type FaultSchedule = faults.Schedule

// FaultEvent is one scheduled fault.
type FaultEvent = faults.Event

// Fault kinds. FaultJoin and FaultLeave are membership churn: a join
// rank starts the run absent (Config.Absent is derived from the
// schedule) and asks to be admitted at the trigger; a leave rank asks
// for a graceful departure.
const (
	FaultCrash = faults.Crash
	FaultStall = faults.Stall
	FaultFlap  = faults.Flap
	FaultBurst = faults.Burst
	FaultJoin  = faults.Join
	FaultLeave = faults.Leave
)

// ParseFaultSchedule parses a comma-separated fault spec, e.g.
// "crash:7@0.5,stall:3@20ms+40ms,burst:*@0.5+5ms:0.3,join:5@0.3". See
// the internal/faults Parse documentation for the grammar.
func ParseFaultSchedule(spec string) (*FaultSchedule, error) { return faults.Parse(spec) }

// TCPConfig parameterizes the TCP-like reliable unicast baseline.
type TCPConfig = unicast.Config

// DefaultTCP returns Linux-2.2-flavored TCP baseline parameters.
func DefaultTCP() TCPConfig { return unicast.DefaultConfig() }

// LiveConfig describes a node on the live UDP-multicast transport.
type LiveConfig = live.Config

// LiveNode is a live protocol endpoint; see NewLiveNode.
type LiveNode = live.Node

// NewLiveNode opens a live node: rank 0 sends with Send, other ranks
// receive with Recv. All nodes of a session must share the group
// address and protocol configuration.
func NewLiveNode(cfg LiveConfig) (*LiveNode, error) { return live.NewNode(cfg) }

// Comm provides MPI-style collective operations (Bcast, Scatter,
// Allgather, Barrier, Reduce) built purely on reliable multicast,
// running on the simulated cluster.
type Comm = workload.Comm

// NewComm builds a communicator over a fresh simulated cluster.
func NewComm(sim SimConfig, cfg Config) (*Comm, error) { return workload.NewComm(sim, cfg) }

// OrderedSystem provides totally ordered reliable multicast — many
// senders, one agreed delivery order at every member — built on the
// studied protocols (the Chang-Maxemchuk / Whetten lineage the paper's
// ring protocol descends from). Simulated-cluster only.
type OrderedSystem = order.System

// OrderedDelivery is one total-order delivery.
type OrderedDelivery = order.Delivery

// NewOrderedSystem builds a total-order group over a fresh simulated
// cluster using cfg's reliability scheme underneath.
func NewOrderedSystem(sim SimConfig, cfg Config) (*OrderedSystem, error) {
	return order.NewSystem(sim, cfg)
}

// Experiment is one reproducible paper experiment (a table or figure).
type Experiment = exp.Experiment

// ExperimentOptions tunes an experiment run.
type ExperimentOptions = exp.Options

// ExperimentReport is a rendered experiment result.
type ExperimentReport = exp.Report

// Experiments lists every registered experiment: the paper's Tables 1-3
// and Figures 8-21, plus the ablations in DESIGN.md.
func Experiments() []Experiment { return exp.All() }

// RunExperiment executes one experiment by id ("fig10", "table3", ...).
// Independent simulation points fan out over opts.Parallel workers; ctx
// cancels the sweep between (and within) points.
func RunExperiment(ctx context.Context, id string, opts ExperimentOptions) (*ExperimentReport, error) {
	e, err := exp.ByID(id)
	if err != nil {
		return nil, err
	}
	return e.Run(ctx, opts)
}
