package check

import (
	"context"
	"reflect"
	"testing"

	"rmcast/internal/cluster"
	"rmcast/internal/core"
	"rmcast/internal/faults"
)

// shardCompatible reports whether a derived chaos case can run
// sharded: a switched fabric with at least two host-bearing domains,
// and no fault triggers that need global state (sender-progress
// triggers, burst windows spanning every switch port).
func shardCompatible(c Case) bool {
	if c.Cluster.Faults != nil {
		for _, e := range c.Cluster.Faults.Events {
			if e.ByProgress || e.Kind == faults.Burst {
				return false
			}
		}
	}
	return cluster.MaxShards(c.Cluster) >= 2
}

// TestShardedMatchesSerial sweeps a pinned slice of the chaos
// harness's configuration space — random protocols, fabrics, loss,
// buffer pressure, crashes, stalls, flaps, churn — and requires the
// sharded execution of every compatible case to reproduce the serial
// run exactly: same Result, same delivery stream, same violations
// (none expected on this seed), same run error.
func TestShardedMatchesSerial(t *testing.T) {
	const seed = 1
	matched := 0
	for idx := 0; idx < 400 && matched < 12; idx++ {
		c := DeriveCase(seed, idx)
		if !shardCompatible(c) {
			continue
		}
		k := 2 + matched%3
		if max := cluster.MaxShards(c.Cluster); k > max {
			k = max
		}
		matched++
		t.Run(c.Repro(), func(t *testing.T) {
			t.Parallel()
			serial, err := Execute(context.Background(), c.Cluster, c.Proto, c.MsgSize)
			if err != nil {
				t.Fatalf("serial Execute: %v", err)
			}
			scfg := c.Cluster
			scfg.Shards = k
			sharded, err := Execute(context.Background(), scfg, c.Proto, c.MsgSize)
			if err != nil {
				t.Fatalf("sharded Execute (k=%d): %v", k, err)
			}
			sr, hr := *serial.Info.Result, *sharded.Info.Result
			if !reflect.DeepEqual(sr, hr) {
				t.Errorf("k=%d Result diverged:\nserial  %+v\nsharded %+v", k, sr, hr)
			}
			if !reflect.DeepEqual(serial.Info.Deliveries, sharded.Info.Deliveries) {
				t.Errorf("k=%d delivery stream diverged:\nserial  %v\nsharded %v",
					k, serial.Info.Deliveries, sharded.Info.Deliveries)
			}
			if !reflect.DeepEqual(serial.Violations, sharded.Violations) {
				t.Errorf("k=%d violations diverged:\nserial  %v\nsharded %v",
					k, serial.Violations, sharded.Violations)
			}
			se, he := "", ""
			if serial.Info.RunErr != nil {
				se = serial.Info.RunErr.Error()
			}
			if sharded.Info.RunErr != nil {
				he = sharded.Info.RunErr.Error()
			}
			if se != he {
				t.Errorf("k=%d run error diverged: serial %q, sharded %q", k, se, he)
			}
			if !reflect.DeepEqual(serial.Tail, sharded.Tail) {
				t.Errorf("k=%d trace tail diverged", k)
			}
		})
	}
	if matched < 5 {
		t.Fatalf("only %d shard-compatible cases in the slice; widen the scan", matched)
	}
}

// TestScaleFourThousand is the sharded-scale acceptance case: 4096
// receivers on a 128-leaf fat-tree, the topology-scaled tree protocol,
// four shards, every applicable invariant checker clean. Skipped in
// -short runs.
func TestScaleFourThousand(t *testing.T) {
	if testing.Short() {
		t.Skip("4k-receiver run skipped in -short mode")
	}
	ccfg, pcfg := scaleCase(t, "fattree:4x128x33@1g", core.ProtoTree, 4096)
	ccfg.Shards = 4
	// The allocation roll call is the one flat convergecast left in the
	// tree protocol: every AllocReq provokes all 4096 receivers into
	// unicasting alloc-ok at once, and the sender reads them at
	// recv-syscall speed (~50µs each, ~205 ms a round). A retry waits
	// until a full AllocTimeout passes with no new confirmation, so one
	// round is read before the next is asked for. The 64 KiB default
	// receive buffer still holds only ~3600 of those small datagrams:
	// the tail of the burst is dropped, the rounds are deterministic,
	// so the same tail is dropped every round and with the default
	// buffer no receiver ever gets past the handshake. Provision the
	// sender like a real 4k-client server: a receive buffer that holds
	// one full roll-call round.
	ccfg.RecvBuf = 1 << 20
	runScaleCase(t, ccfg, pcfg, 64*1024)
}
