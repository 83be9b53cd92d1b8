package cluster

import (
	"context"
	"fmt"
	"time"

	"rmcast/internal/core"
	"rmcast/internal/ethernet"
	"rmcast/internal/ipnet"
	"rmcast/internal/metrics"
	"rmcast/internal/trace"
	"rmcast/internal/unicast"
)

// Multi-session runs put N concurrent reliable multicast sessions — and
// optional background unicast cross-traffic — on one shared fabric in a
// single deterministic simulation. Each session gets its own UDP port
// (sessionPortBase+s), its own multicast group (sessionGroup(s), joined
// only by its members), and a nonzero SessionTag seeding its message
// ids, so sessions demultiplex cleanly at the sockets while their
// frames contend for the same switches, trunks, and host links.
// Switches flood multicast along the spanning tree regardless of group
// membership (no IGMP snooping, as on the paper's testbed), so every
// session's data stream loads every host link — the NIC group filter
// discards non-member copies after the wire paid for them. That shared
// wire is exactly the contention being measured.
const (
	// sessionPortBase is session s's UDP port (the legacy single-session
	// port stays untouched at Port).
	sessionPortBase = Port + 1
	// flowPortBase is cross-traffic flow f's UDP port.
	flowPortBase = Port + 4096
)

// sessionGroup returns session s's multicast group. Group(1) remains
// the legacy all-hosts group; sessions start at Group(2).
func sessionGroup(s int) ipnet.Addr { return ipnet.Group(2 + s) }

// MakeSessionMessage builds session sess's deterministic payload.
// Session 0's equals MakeMessage, and any two sessions' payloads differ
// in almost every byte, so a cross-session delivery can never verify.
func MakeSessionMessage(n, sess int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*131 + 17 + sess*29)
	}
	return b
}

// SessionSpec places one multicast session on the shared fabric. Sender
// and Receivers are host indices (0..NumReceivers); the session's
// protocol rank r maps to host Receivers[r-1]. Hosts may appear in any
// number of sessions (overlapping receiver sets), each on its own port.
type SessionSpec struct {
	// Proto is the session's protocol configuration. NumReceivers is
	// forced to len(Receivers), SessionTag to the session's index+1, and
	// Absent cleared (multi-session runs have static membership).
	Proto core.Config
	// Sender is the sending host.
	Sender int
	// Receivers lists the receiving hosts, distinct and excluding Sender.
	Receivers []int
	// MsgSize is the transfer size in bytes.
	MsgSize int
	// Start delays the sender's Start by this much virtual time.
	Start time.Duration
	// Trace, when non-nil, receives the session's protocol events with
	// Node/Peer in session-rank space (0 = sender), exactly as a
	// single-session trace — the invariant checkers consume it as-is.
	Trace *trace.Buffer
	// Metrics, when non-nil, is the session's metrics sink; a fresh one
	// is created otherwise so every SessionResult carries a snapshot.
	Metrics *metrics.Session
	// OnDeliver, when non-nil, observes every completed delivery (rank,
	// time since the session's start, payload). The payload is the
	// receiver's own buffer, valid only during the call: the hook must
	// not retain or mutate it, and RunMulti recycles it on return.
	OnDeliver func(rank core.NodeID, at time.Duration, payload []byte)
}

// CrossFlow is background unicast cross-traffic: Repeat back-to-back
// Size-byte reliable unicast transfers from host From to host To,
// starting at Start. Repeat is finite so the simulation drains.
type CrossFlow struct {
	From, To int
	Size     int
	Repeat   int
	Start    time.Duration
	// Cfg is the unicast stream configuration; the zero value uses
	// unicast.DefaultConfig.
	Cfg unicast.Config
}

// SessionResult is one session's outcome inside a multi-session run.
// The embedded Result is in session-rank space; its HostStats,
// SwitchStats, and BusStats stay empty (the fabric is shared — see
// MultiResult).
type SessionResult struct {
	Result
	// Start is the session's virtual start offset.
	Start time.Duration
}

// MultiResult aggregates one multi-session contention run.
type MultiResult struct {
	Sessions []SessionResult
	// CrossCompleted counts completed transfers per cross flow.
	CrossCompleted []int
	// Elapsed spans run start (the first session's Start offset is
	// measured from it) to drain or abort.
	Elapsed time.Duration
	// Completed is true when every session's sender finished.
	Completed bool

	HostStats   []ipnet.HostStats
	SwitchStats []ethernet.SwitchStats
}

func validateMulti(ccfg Config, specs []SessionSpec, flows []CrossFlow) error {
	if len(specs) == 0 {
		return fmt.Errorf("cluster: RunMulti needs at least one session")
	}
	if ccfg.Faults != nil {
		return fmt.Errorf("cluster: multi-session runs do not support fault schedules")
	}
	nHosts := ccfg.NumReceivers + 1
	for si := range specs {
		sp := &specs[si]
		if sp.Proto.Protocol == core.ProtoRawUDP {
			return fmt.Errorf("cluster: session %d: sessions need a reliable protocol", si)
		}
		if sp.MsgSize <= 0 {
			return fmt.Errorf("cluster: session %d: MsgSize must be > 0", si)
		}
		if sp.Start < 0 {
			return fmt.Errorf("cluster: session %d: negative Start", si)
		}
		if sp.Sender < 0 || sp.Sender >= nHosts {
			return fmt.Errorf("cluster: session %d: sender host %d out of range [0,%d)", si, sp.Sender, nHosts)
		}
		if len(sp.Receivers) == 0 {
			return fmt.Errorf("cluster: session %d: no receivers", si)
		}
		seen := map[int]bool{sp.Sender: true}
		for _, h := range sp.Receivers {
			if h < 0 || h >= nHosts {
				return fmt.Errorf("cluster: session %d: receiver host %d out of range [0,%d)", si, h, nHosts)
			}
			if seen[h] {
				return fmt.Errorf("cluster: session %d: host %d appears twice", si, h)
			}
			seen[h] = true
		}
		if len(sp.Proto.Absent) > 0 {
			return fmt.Errorf("cluster: session %d: multi-session membership is static; Absent is not supported", si)
		}
		if err := checkWireV2(ccfg, sp.Proto); err != nil {
			return err
		}
	}
	for fi := range flows {
		f := &flows[fi]
		if f.From < 0 || f.From >= nHosts || f.To < 0 || f.To >= nHosts {
			return fmt.Errorf("cluster: flow %d: host out of range [0,%d)", fi, nHosts)
		}
		if f.From == f.To {
			return fmt.Errorf("cluster: flow %d: From and To are the same host", fi)
		}
		if f.Size <= 0 || f.Repeat <= 0 {
			return fmt.Errorf("cluster: flow %d: Size and Repeat must be > 0", fi)
		}
		if f.Start < 0 {
			return fmt.Errorf("cluster: flow %d: negative Start", fi)
		}
	}
	return nil
}

// RunMulti builds a fresh testbed from ccfg and runs every session and
// cross flow concurrently on it, to drain: the run ends when the whole
// fabric is quiet (every session finished and every flow exhausted its
// repeats), the virtual deadline passes, or the wall-clock/context
// guards trip. Serial and sharded execution produce identical traces,
// deliveries, and results — the event set is the same because nothing
// depends on observing completion mid-run.
func RunMulti(ctx context.Context, ccfg Config, specs []SessionSpec, flows []CrossFlow) (*MultiResult, error) {
	if err := validateMulti(ccfg, specs, flows); err != nil {
		return nil, err
	}
	c, err := New(ccfg)
	if err != nil {
		return nil, err
	}
	res := &MultiResult{
		Sessions:       make([]SessionResult, len(specs)),
		CrossCompleted: make([]int, len(flows)),
	}
	begin := c.Sim.Now()
	transfers := make([]*transfer, len(specs))
	for si := range specs {
		sp := &specs[si]
		mx := sp.Metrics
		if mx == nil {
			mx = metrics.NewSession()
		}
		pcfg := sp.Proto
		pcfg.SessionTag = uint32(si + 1)
		group := sessionGroup(si)
		hostOf := append(make([]ipnet.Addr, 0, 1+len(sp.Receivers)), ipnet.Addr(sp.Sender))
		for _, h := range sp.Receivers {
			hostOf = append(hostOf, ipnet.Addr(h))
		}
		for _, h := range hostOf {
			c.Hosts[h].JoinGroup(group)
		}
		b := c.bind(sessionPortBase+si, group, hostOf, mx, sp.Trace)
		t, err := b.attach(pcfg, MakeSessionMessage(sp.MsgSize, si), sp.Start, sp.OnDeliver, true)
		if err != nil {
			return nil, fmt.Errorf("cluster: session %d: %w", si, err)
		}
		transfers[si] = t
	}

	for fi := range flows {
		fi := fi
		f := &flows[fi]
		fcfg := f.Cfg
		if fcfg == (unicast.Config{}) {
			fcfg = unicast.DefaultConfig()
		}
		// A flow is a two-rank binding with no group and no sinks; the
		// unicast streams speak wire v1 (the zero core.Config).
		b := c.bind(flowPortBase+fi, 0, []ipnet.Addr{ipnet.Addr(f.From), ipnet.Addr(f.To)}, nil, nil)
		se, re := b.newEnv(0, core.Config{}), b.newEnv(1, core.Config{})
		rcv, err := unicast.NewReceiver(re, fcfg, 0, func([]byte) {})
		if err != nil {
			return nil, fmt.Errorf("cluster: flow %d: %w", fi, err)
		}
		re.ep = rcv
		msg := MakeMessage(f.Size)
		remaining := f.Repeat
		var launch func()
		snd, err := unicast.NewSender(se, fcfg, 1, func() {
			res.CrossCompleted[fi]++
			remaining--
			if remaining > 0 {
				launch()
			}
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: flow %d: %w", fi, err)
		}
		se.ep = snd
		launch = func() { snd.Start(msg) }
		c.simForHost(f.From).After(f.Start, launch)
	}

	end, abort := c.drive(ctx, begin, nil, nil)
	res.Elapsed = end - begin
	res.Completed = true
	for si, t := range transfers {
		specs[si].Trace.Flush()
		r := &res.Sessions[si]
		r.Start = specs[si].Start
		t.summarise(&r.Result, end)
		t.release()
		res.Completed = res.Completed && r.Completed
	}
	res.HostStats, res.SwitchStats, _ = c.fabricStats()
	c.recycle()
	if abort != nil && abort != errWallLimit {
		return res, abort
	}
	if !res.Completed {
		return res, c.overrun("multi-session run", abort)
	}
	return res, nil
}
