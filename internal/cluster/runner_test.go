package cluster

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"rmcast/internal/core"
	"rmcast/internal/ipnet"
	"rmcast/internal/trace"
	"rmcast/internal/unicast"
)

// TestRunnersAgree holds Run and Session to one measurement procedure:
// the golden nak-loss scenario, run once through Run and once through
// New + NewSession(root 0, Port) + RunToCompletion, must put the same
// protocol events into Config.Trace, event for event.
func TestRunnersAgree(t *testing.T) {
	record := func(drive func(ccfg Config, pcfg core.Config, size int) error) []trace.Event {
		t.Helper()
		ccfg, pcfg, size := goldenCases()["nak-loss"]()
		ccfg.Trace = trace.New(1 << 20)
		if err := drive(ccfg, pcfg, size); err != nil {
			t.Fatal(err)
		}
		if total := ccfg.Trace.Total(); total > uint64(len(ccfg.Trace.Events())) {
			t.Fatalf("trace ring overflowed (%d events); raise its capacity", total)
		}
		return ccfg.Trace.Events()
	}
	viaRun := record(func(ccfg Config, pcfg core.Config, size int) error {
		_, err := run(ccfg, pcfg, size)
		return err
	})
	viaSession := record(func(ccfg Config, pcfg core.Config, size int) error {
		c, err := New(ccfg)
		if err != nil {
			return err
		}
		ses, err := NewSession(c, core.SenderID, Port, pcfg, MakeMessage(size))
		if err != nil {
			return err
		}
		_, err = ses.RunToCompletion()
		return err
	})
	if len(viaRun) == 0 {
		t.Fatal("Run traced nothing")
	}
	if len(viaSession) != len(viaRun) {
		t.Fatalf("Session traced %d events, Run %d", len(viaSession), len(viaRun))
	}
	for i := range viaRun {
		if viaRun[i] != viaSession[i] {
			t.Fatalf("event %d differs:\n run     %v\n session %v", i, viaRun[i], viaSession[i])
		}
	}
}

// TestRunMultiReportsEjections pins degraded delivery in a contention
// run to Run's semantics: a receiver the sender ejects is listed in its
// session's Failed and exempt from Verified, and the neighbouring
// session sees nothing of it.
func TestRunMultiReportsEjections(t *testing.T) {
	ccfg := Default(8)
	ccfg.Deadline = 10 * time.Second
	// Host 3 takes a virtual second per received datagram: alive, but far
	// beyond any retransmission or probe timeout.
	slow := ccfg.Costs
	slow.RecvSyscall = time.Second
	ccfg.hostCosts = func(host int) *ipnet.CostModel {
		if host == 3 {
			return &slow
		}
		return nil
	}
	specs := []SessionSpec{
		{Proto: chaosConfig(core.ProtoACK, 4), Sender: 0, Receivers: []int{1, 2, 3, 4}, MsgSize: 100_000},
		{Proto: chaosConfig(core.ProtoACK, 3), Sender: 5, Receivers: []int{6, 7, 8}, MsgSize: 100_000},
	}
	res, err := RunMulti(context.Background(), ccfg, specs, nil)
	if err != nil {
		t.Fatalf("RunMulti: %v", err)
	}
	want := []struct{ failed, delivered string }{
		{"[3]", "[1 2 4]"},
		{"[]", "[1 2 3]"},
	}
	for si, w := range want {
		s := res.Sessions[si]
		if !s.Completed || !s.Verified {
			t.Errorf("session %d: completed=%v verified=%v", si, s.Completed, s.Verified)
		}
		if got := fmt.Sprint(s.Failed); got != w.failed {
			t.Errorf("session %d: Failed = %s, want %s", si, got, w.failed)
		}
		if got := fmt.Sprint(s.Delivered); got != w.delivered {
			t.Errorf("session %d: Delivered = %s, want %s", si, got, w.delivered)
		}
		if len(s.Left) != 0 || len(s.NeverJoined) != 0 {
			t.Errorf("session %d: Left = %v, NeverJoined = %v, want none", si, s.Left, s.NeverJoined)
		}
	}
}

// TestWallLimitEverywhere trips the wall-clock guard (first checked
// after 4096 events) on every path that steps the simulator.
func TestWallLimitEverywhere(t *testing.T) {
	const size = 2 << 20
	ccfg := Default(8)
	ccfg.WallLimit = time.Nanosecond
	pcfg := protoConfig(core.ProtoNAK, 8)
	paths := map[string]func() error{
		"protocol": func() error {
			_, err := run(ccfg, pcfg, size)
			return err
		},
		"tcp": func() error {
			_, err := Run(context.Background(), ccfg, TCPSpec(unicast.DefaultConfig()), size)
			return err
		},
		"session": func() error {
			c, err := New(ccfg)
			if err != nil {
				return err
			}
			ses, err := NewSession(c, 2, Port, pcfg, MakeMessage(size))
			if err != nil {
				return err
			}
			_, err = ses.RunToCompletion()
			return err
		},
	}
	for name, path := range paths {
		err := path()
		if err == nil || !strings.Contains(err.Error(), "exceeded wall-clock limit") {
			t.Errorf("%s: err = %v, want the wall-clock limit error", name, err)
		}
	}
}
