package cluster

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"rmcast/internal/core"
	"rmcast/internal/topo"
	"rmcast/internal/unicast"
)

// TestShardedGoldenDigests is the headline determinism guarantee: the
// switched golden scenarios, executed on two conservatively
// synchronized shards, hash to the exact digests pinned for the serial
// engine — every trace event, timing, statistic, and metric identical.
// (The shared-bus scenario is excluded: one collision domain cannot
// shard.)
func TestShardedGoldenDigests(t *testing.T) {
	for name, mk := range goldenCases() {
		if name == "nak-bus" {
			continue
		}
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ccfg, pcfg, size := mk()
			ccfg.Shards = 2
			got := digestRun(t, ccfg, pcfg, size)
			if want := goldenDigests[name]; got != want {
				t.Errorf("sharded digest diverged from serial golden for %q:\n got  %s\n want %s", name, got, want)
			}
		})
	}
}

// TestShardedMatchesSerialOnCannedTopologies runs a loss-repair NAK
// session and a hierarchical tree session on every canned fabric, at
// every usable shard count, and requires byte-identical digests to the
// serial run of the same configuration.
func TestShardedMatchesSerialOnCannedTopologies(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-topology digest sweep")
	}
	for _, c := range topo.Canned() {
		spec := c.Spec
		// Enough receivers to populate several leaf domains, within the
		// fabric's capacity.
		n := 30
		if cap := spec.Capacity(); cap > 0 && cap <= n {
			n = cap - 1
		}
		ccfg := Default(n)
		ccfg.Topo = &spec
		ccfg.LossRate = 0.01
		max := MaxShards(ccfg)
		if max < 2 {
			continue // single-domain fabrics have no parallel decomposition
		}
		for _, pcfg := range []core.Config{
			{Protocol: core.ProtoNAK, PacketSize: 8000, WindowSize: 50, PollInterval: 43},
			{Protocol: core.ProtoTree, PacketSize: 8000, WindowSize: 20, TreeHeight: 15},
		} {
			pcfg := pcfg
			base := ccfg
			t.Run(fmt.Sprintf("%s/%s", spec.String(), pcfg.Protocol), func(t *testing.T) {
				t.Parallel()
				serial := digestRun(t, base, pcfg, 100000)
				for k := 2; k <= max && k <= 4; k++ {
					sharded := base
					sharded.Shards = k
					if got := digestRun(t, sharded, pcfg, 100000); got != serial {
						t.Errorf("shards=%d digest diverged on %s:\n got  %s\n want %s",
							k, spec.String(), got, serial)
					}
				}
			})
		}
	}
}

// TestShardedRejections pins the configurations sharded execution must
// refuse up front, with a useful error, instead of silently diverging.
func TestShardedRejections(t *testing.T) {
	t.Run("shared-bus", func(t *testing.T) {
		ccfg := Default(8)
		ccfg.Topology = SharedBus
		ccfg.Shards = 2
		if _, err := New(ccfg); err == nil {
			t.Fatal("sharded shared-bus run was not rejected")
		}
	})
	t.Run("too-many-shards", func(t *testing.T) {
		ccfg := Default(30) // two-switch: 2 host-bearing domains
		ccfg.Shards = 3
		if _, err := New(ccfg); err == nil {
			t.Fatal("3 shards on a 2-domain fabric was not rejected")
		}
	})
	t.Run("zero-propagation", func(t *testing.T) {
		ccfg := Default(30)
		ccfg.Propagation = 0
		ccfg.Shards = 2
		if _, err := New(ccfg); err == nil {
			t.Fatal("zero-lookahead sharded run was not rejected")
		}
	})
	t.Run("tcp-baseline", func(t *testing.T) {
		ccfg := Default(4)
		ccfg.Shards = 2
		if _, err := Run(context.Background(), ccfg, TCPSpec(unicast.DefaultConfig()), 1000); err == nil {
			t.Fatal("sharded TCP baseline was not rejected")
		}
	})
	t.Run("wire-v2", func(t *testing.T) {
		// Three shards on a two-domain fabric is what New would refuse:
		// seeing the WireV2 message proves the check precedes the build.
		ccfg := Default(30)
		ccfg.Shards = 3
		pcfg := protoConfig(core.ProtoNAK, 30)
		pcfg.WireV2 = true
		const want = "WireV2 does not support sharded execution"
		if _, err := run(ccfg, pcfg, 1000); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("sharded WireV2 run: err = %v, want %q", err, want)
		}
		specs := []SessionSpec{{Proto: pcfg, Sender: 0, Receivers: []int{1, 2}, MsgSize: 1000}}
		if _, err := RunMulti(context.Background(), ccfg, specs, nil); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("sharded WireV2 multi-session run: err = %v, want %q", err, want)
		}
	})
	t.Run("session-on-sharded-cluster", func(t *testing.T) {
		ccfg := Default(30)
		ccfg.Shards = 2
		c, err := New(ccfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = NewSession(c, 0, Port, protoConfig(core.ProtoNAK, 30), MakeMessage(1000))
		if err == nil || !strings.Contains(err.Error(), "serial engine") {
			t.Fatalf("NewSession on a sharded cluster: err = %v, want a serial-engine refusal", err)
		}
	})
}
