package ethernet

import (
	"fmt"
	"time"

	"rmcast/internal/sim"
)

// SwitchConfig describes a store-and-forward Ethernet switch.
type SwitchConfig struct {
	// Name appears in diagnostics.
	Name string
	// ForwardDelay is the per-frame processing latency between complete
	// reception on an input port and the frame entering the output
	// queue. A few microseconds for the era's low-end switches.
	ForwardDelay time.Duration
	// PortRate is the line rate of every port.
	PortRate Rate
	// PortPropagation is the cable propagation delay per port.
	PortPropagation time.Duration
	// PortQueueCap bounds each output port's queue in wire bytes.
	// Zero means unbounded.
	PortQueueCap int
}

// Switch is an output-queued store-and-forward switch. Unicast frames
// follow a static forwarding table (populated with Learn); frames to
// unknown destinations, broadcast frames, and multicast frames are
// flooded to every port except the ingress, matching the paper's
// switches, which had no IGMP snooping.
type Switch struct {
	sim   *sim.Simulator
	cfg   SwitchConfig
	ports []*SwitchPort
	// table is the forwarding table indexed by station address (Addr
	// is a small dense integer); nil marks an address never learned.
	table []*SwitchPort

	flooded   uint64
	forwarded uint64
}

// SwitchPort is one switch port. It implements Receiver for the inbound
// direction; its outbound direction is a Tx created when the port is
// linked to a device.
type SwitchPort struct {
	sw           *Switch
	index        int
	out          *Tx
	floodBlocked bool
}

// NewSwitch returns a switch with no ports.
func NewSwitch(s *sim.Simulator, cfg SwitchConfig) *Switch {
	if cfg.PortRate == 0 {
		cfg.PortRate = Rate100Mbps
	}
	return &Switch{sim: s, cfg: cfg}
}

// Port returns the i'th port, in creation order.
func (sw *Switch) Port(i int) *SwitchPort { return sw.ports[i] }

// NumPorts returns the number of ports.
func (sw *Switch) NumPorts() int { return len(sw.ports) }

// AddPort creates a new port. Connect it to a device with ConnectPort or
// by wiring a Tx toward the device and calling SetOut.
func (sw *Switch) AddPort() *SwitchPort {
	p := &SwitchPort{sw: sw, index: len(sw.ports)}
	sw.ports = append(sw.ports, p)
	return p
}

// SetOut installs the transmitter carrying frames from the port toward
// its attached device.
func (p *SwitchPort) SetOut(out *Tx) { p.out = out }

// Out returns the port's outbound transmitter (nil until wired).
func (p *SwitchPort) Out() *Tx { return p.out }

// Index returns the port's position on the switch.
func (p *SwitchPort) Index() int { return p.index }

// SetFloodBlock excludes the port from flooding (multicast, broadcast,
// unknown unicast), the way spanning-tree blocking prunes redundant
// trunks so floods cannot loop through a multi-path fabric.
// Table-routed unicast still egresses the port.
func (p *SwitchPort) SetFloodBlock(blocked bool) { p.floodBlocked = blocked }

// RecvFrame handles a frame fully received on this port.
func (p *SwitchPort) RecvFrame(f *Frame) {
	sw := p.sw
	if sw.cfg.ForwardDelay > 0 {
		// Switches a flood reaches at one instant post one run.
		sw.sim.Post(sw.sim.Now()+sw.cfg.ForwardDelay, switchForward, p, f)
		return
	}
	sw.forward(p, f)
}

func switchForward(a, b any) {
	p := a.(*SwitchPort)
	p.sw.forward(p, b.(*Frame))
}

// Learn binds a station address to a port, as MAC learning would; a
// second Learn of the address moves it. An address past the table's
// end grows the table to exactly that address plus one, so learning the
// highest address first sizes it once. Broadcast, like every negative
// address, cannot be learned.
func (sw *Switch) Learn(a Addr, p *SwitchPort) {
	if a < 0 {
		panic(fmt.Sprintf("ethernet: cannot learn address %d (broadcast or negative)", a))
	}
	if int(a) >= len(sw.table) {
		t := make([]*SwitchPort, a+1)
		copy(t, sw.table)
		sw.table = t
	}
	sw.table[a] = p
}

// ConnectPort links a device receiver to a new switch port with the
// switch's per-port link parameters and returns the transmitter the
// device must use to reach the switch. addr registers the device in the
// forwarding table.
func (sw *Switch) ConnectPort(addr Addr, device Receiver) *Tx {
	p, toSwitch := sw.AttachPort(device)
	sw.Learn(addr, p)
	return toSwitch
}

// AttachPort is ConnectPort without the Learn: it returns the new port
// for the caller to register in the forwarding table, as a topology
// builder that owns the tables does (see ConnectTrunk).
func (sw *Switch) AttachPort(device Receiver) (*SwitchPort, *Tx) {
	p := sw.AddPort()
	cfg := TxConfig{
		Rate:        sw.cfg.PortRate,
		Propagation: sw.cfg.PortPropagation,
		QueueCap:    sw.cfg.PortQueueCap,
	}
	// Device → switch direction: unbounded here, because the sending
	// device models its own NIC/socket transmit queue; capping both ends
	// would double-count the same buffer.
	upCfg := cfg
	upCfg.QueueCap = 0
	toSwitch := NewTx(sw.sim, upCfg, p)
	// Switch → device direction: this is the switch output queue.
	p.SetOut(NewTx(sw.sim, cfg, device))
	return p, toSwitch
}

// ConnectSwitch links two switches with one inter-switch trunk and
// registers the given remote addresses behind the peer's port. Frames on
// sw destined to any addr in remoteAddrs egress through the trunk.
func (sw *Switch) ConnectSwitch(peer *Switch, localAddrs, remoteAddrs []Addr) {
	pLocal := sw.AddPort()
	pRemote := peer.AddPort()
	cfg := TxConfig{
		Rate:        sw.cfg.PortRate,
		Propagation: sw.cfg.PortPropagation,
		QueueCap:    sw.cfg.PortQueueCap,
	}
	pLocal.SetOut(NewTx(sw.sim, cfg, pRemote))
	peerCfg := TxConfig{
		Rate:        peer.cfg.PortRate,
		Propagation: peer.cfg.PortPropagation,
		QueueCap:    peer.cfg.PortQueueCap,
	}
	pRemote.SetOut(NewTx(peer.sim, peerCfg, pLocal))
	for _, a := range remoteAddrs {
		sw.Learn(a, pLocal)
	}
	for _, a := range localAddrs {
		peer.Learn(a, pRemote)
	}
}

// ConnectTrunk links sw to peer with one trunk at explicit per-trunk
// link parameters (cfg carries sw→peer, peerCfg peer→sw) and returns
// both ports, sw's side first. Unlike ConnectSwitch it learns nothing:
// multi-hop fabrics need routes beyond the directly attached
// addresses, so the topology builder owns the forwarding tables.
func (sw *Switch) ConnectTrunk(peer *Switch, cfg, peerCfg TxConfig) (local, remote *SwitchPort) {
	pLocal := sw.AddPort()
	pRemote := peer.AddPort()
	pLocal.SetOut(NewTx(sw.sim, cfg, pRemote))
	pRemote.SetOut(NewTx(peer.sim, peerCfg, pLocal))
	return pLocal, pRemote
}

// forward routes f that arrived on ingress, consuming the frame
// reference it was handed. Each egress Send is given its own reference:
// Send can drop (and release) synchronously, so the switch retains
// before every egress and releases its own reference at the end.
func (sw *Switch) forward(ingress *SwitchPort, f *Frame) {
	// Broadcast and every other negative address wrap past the table.
	if !f.Multicast && uint(f.Dst) < uint(len(sw.table)) {
		if out := sw.table[f.Dst]; out != nil {
			if out != ingress && out.out != nil {
				sw.forwarded++
				out.out.Send(f)
			} else {
				f.Release()
			}
			return
		}
	}
	// Unknown unicast floods, as a real switch would.
	sw.flooded++
	for _, p := range sw.ports {
		if p == ingress || p.out == nil || p.floodBlocked {
			continue
		}
		f.Retain()
		p.out.Send(f)
	}
	f.Release()
}

// Stats summarizes switch activity and aggregates port-queue drops.
func (sw *Switch) Stats() SwitchStats {
	st := SwitchStats{Forwarded: sw.forwarded, Flooded: sw.flooded}
	for _, p := range sw.ports {
		if p.out != nil {
			st.QueueDrops += p.out.Stats().QueueDrops
		}
	}
	return st
}

// SwitchStats summarizes a switch's forwarding activity.
type SwitchStats struct {
	Forwarded  uint64 // unicast frames forwarded by table lookup
	Flooded    uint64 // frames flooded (multicast/broadcast/unknown)
	QueueDrops uint64 // frames dropped at full output queues
}

func (sw *Switch) String() string {
	return fmt.Sprintf("switch(%s, %d ports)", sw.cfg.Name, len(sw.ports))
}
