package cluster

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"rmcast/internal/core"
	"rmcast/internal/ipnet"
)

// checkRootBinding reports whether bindRoot's two rank maps form the
// rotate-root bijection over hosts 0..n: rank 0 on the root, every host
// on exactly one rank, and rankOf the exact inverse of hostOf.
func checkRootBinding(c *Cluster, root core.NodeID) error {
	b := c.bindRoot(root, Port)
	if len(b.hostOf) != len(c.Hosts) || len(b.rankOf) != len(c.Hosts) {
		return fmt.Errorf("root %d: maps sized %d/%d for %d hosts", root, len(b.hostOf), len(b.rankOf), len(c.Hosts))
	}
	if got := core.NodeID(b.hostOf[core.SenderID]); got != root {
		return fmt.Errorf("root %d: rank 0 maps to host %d", root, got)
	}
	seen := map[ipnet.Addr]bool{}
	for r, h := range b.hostOf {
		if int(h) < 0 || int(h) >= len(c.Hosts) || seen[h] {
			return fmt.Errorf("root %d: rank %d maps to host %d (out of range or mapped twice)", root, r, h)
		}
		seen[h] = true
		if back := b.rankOf[h]; back != core.NodeID(r) {
			return fmt.Errorf("root %d: rankOf[hostOf[%d]] = %d", root, r, back)
		}
		// Ranks 1..N cover the non-root hosts in address order.
		if r > 1 && h <= b.hostOf[r-1] {
			return fmt.Errorf("root %d: ranks %d,%d not in host address order", root, r-1, r)
		}
	}
	return nil
}

func TestSessionRankMapping(t *testing.T) {
	c, err := New(Default(5))
	if err != nil {
		t.Fatal(err)
	}
	for root := core.NodeID(0); root <= 5; root++ {
		if err := checkRootBinding(c, root); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSessionRankMappingQuick(t *testing.T) {
	f := func(nRaw, rootRaw uint8) bool {
		n := int(nRaw%20) + 1 // receivers
		// The maps depend on the host count alone.
		c := &Cluster{Hosts: make([]*ipnet.Host, n+1)}
		err := checkRootBinding(c, core.NodeID(int(rootRaw)%(n+1)))
		if err != nil {
			t.Log(err)
		}
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSessionNonZeroRoot(t *testing.T) {
	c, err := New(Default(4))
	if err != nil {
		t.Fatal(err)
	}
	msg := MakeMessage(30000)
	ses, err := NewSession(c, 3, Port, protoConfig(core.ProtoNAK, 4), msg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ses.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	for h := 0; h <= 4; h++ {
		if h == 3 {
			if ses.Delivered[h] != nil {
				t.Error("root recorded a delivery to itself")
			}
			continue
		}
		if !bytes.Equal(ses.Delivered[h], msg) {
			t.Errorf("host %d missing or corrupt", h)
		}
	}
}

// TestConcurrentSessions runs two sessions with different roots on
// distinct ports of ONE cluster at the same time: both must complete
// and deliver intact, and sharing the wire must cost both of them time
// compared to running alone.
func TestConcurrentSessions(t *testing.T) {
	pcfg := protoConfig(core.ProtoNAK, 5)

	solo := func(root core.NodeID) time.Duration {
		c, err := New(Default(5))
		if err != nil {
			t.Fatal(err)
		}
		ses, err := NewSession(c, root, Port, pcfg, MakeMessage(400000))
		if err != nil {
			t.Fatal(err)
		}
		d, err := ses.RunToCompletion()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	soloTime := solo(0)

	c, err := New(Default(5))
	if err != nil {
		t.Fatal(err)
	}
	msgA := MakeMessage(400000)
	msgB := MakeMessage(400001)
	sesA, err := NewSession(c, 0, Port, pcfg, msgA)
	if err != nil {
		t.Fatal(err)
	}
	sesB, err := NewSession(c, 2, Port+1, pcfg, msgB)
	if err != nil {
		t.Fatal(err)
	}
	begin := c.Sim.Now()
	for c.Sim.Pending() > 0 && !(sesA.Done() && sesB.Done()) {
		c.Sim.Step()
		if c.Sim.Now()-begin > c.Cfg.Deadline {
			t.Fatal("concurrent sessions exceeded the deadline")
		}
	}
	if !sesA.Done() || !sesB.Done() {
		t.Fatal("a session stalled")
	}
	both := c.Sim.Now() - begin
	for h := 1; h <= 5; h++ {
		if !bytes.Equal(sesA.Delivered[h], msgA) {
			t.Errorf("session A: host %d corrupt", h)
		}
	}
	for h := 0; h <= 5; h++ {
		if h == 2 {
			continue
		}
		if !bytes.Equal(sesB.Delivered[h], msgB) {
			t.Errorf("session B: host %d corrupt", h)
		}
	}
	// Two simultaneous multicast streams oversubscribe every receiver
	// downlink 2:1, so the pair must take longer than one alone — and
	// genuinely suffers congestion (switch-queue drops, Go-Back-N
	// recovery), so the only upper bound asserted is "recovers rather
	// than collapses".
	if both <= soloTime {
		t.Errorf("concurrent pair (%v) not slower than one alone (%v)", both, soloTime)
	}
	if both > 20*soloTime {
		t.Errorf("concurrent pair (%v) collapsed vs solo (%v)", both, soloTime)
	}
}

func TestSessionCloseFreesPort(t *testing.T) {
	c, err := New(Default(3))
	if err != nil {
		t.Fatal(err)
	}
	pcfg := protoConfig(core.ProtoACK, 3)
	ses, err := NewSession(c, 0, Port, pcfg, MakeMessage(1000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ses.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	ses.Close()
	// Rebinding the same port must not panic.
	ses2, err := NewSession(c, 1, Port, pcfg, MakeMessage(2000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ses2.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
}

func TestStragglerHostCosts(t *testing.T) {
	slow := Default(3).Costs
	slow.RecvSyscall = 3 * time.Millisecond
	c, err := NewWithHostCosts(Default(3), func(host int) *ipnet.CostModel {
		if host == 2 {
			return &slow
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ses, err := NewSession(c, 0, Port, protoConfig(core.ProtoTree, 3), MakeMessage(100000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ses.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
}
