// Wire format v2 acceptance tests: protocol correctness under carrier
// frames (the invariant checkers must see through coalescing),
// determinism, the v1-vs-v2 bytes-on-wire comparison, 100% corrupt
// frame detection under injection, and the churn × selective-repeat
// matrix (satellite coverage: the have-bitmap join edge had none).
//
// External test package for the same reason as invariants_test.go: the
// checker harness drives runs through the public API.
package cluster_test

import (
	"context"
	"encoding/binary"
	"testing"

	"rmcast/internal/check"
	"rmcast/internal/cluster"
	"rmcast/internal/core"
	"rmcast/internal/packet"
)

// wirev2Scenarios covers all four protocol families under WireV2 with
// sub-MTU packets, so every run exercises coalesced carrier frames.
func wirev2Scenarios() map[string]func() (cluster.Config, core.Config, int) {
	return map[string]func() (cluster.Config, core.Config, int){
		"ack-v2": func() (cluster.Config, core.Config, int) {
			return cluster.Default(10), core.Config{Protocol: core.ProtoACK,
				PacketSize: 512, WindowSize: 8, WireV2: true}, 100000
		},
		"nak-v2-loss": func() (cluster.Config, core.Config, int) {
			ccfg := cluster.Default(10)
			ccfg.LossRate = 0.01
			return ccfg, core.Config{Protocol: core.ProtoNAK,
				PacketSize: 512, WindowSize: 24, PollInterval: 11, WireV2: true}, 100000
		},
		"ring-v2": func() (cluster.Config, core.Config, int) {
			return cluster.Default(10), core.Config{Protocol: core.ProtoRing,
				PacketSize: 512, WindowSize: 16, WireV2: true}, 100000
		},
		"tree-v2": func() (cluster.Config, core.Config, int) {
			return cluster.Default(10), core.Config{Protocol: core.ProtoTree,
				PacketSize: 512, WindowSize: 8, TreeHeight: 5, WireV2: true}, 100000
		},
	}
}

// TestWireV2ProtocolsSatisfyInvariants runs every protocol family under
// v2 through the full invariant-checker harness: the checkers compare
// the per-logical-packet trace against the metrics session, so they
// pass only if carrier frames are transparent — one traced receive per
// inner packet, none for the carrier itself.
func TestWireV2ProtocolsSatisfyInvariants(t *testing.T) {
	for name, mk := range wirev2Scenarios() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ccfg, pcfg, size := mk()
			out, err := check.Execute(context.Background(), ccfg, pcfg, size)
			if err != nil {
				t.Fatalf("Execute: %v", err)
			}
			if out.Info.RunErr != nil {
				t.Fatalf("run error: %v", out.Info.RunErr)
			}
			for _, v := range out.Violations {
				t.Errorf("violation: %v", v)
			}
			res := out.Info.Result
			if !res.Verified {
				t.Fatal("delivery not verified")
			}
			m := res.Metrics
			if m.WireFrames == 0 {
				t.Fatal("v2 run counted no wire frames")
			}
			if m.CarrierFrames == 0 || m.CoalescedPackets == 0 {
				t.Errorf("no coalescing with %d-byte packets: carriers=%d coalesced=%d",
					pcfg.PacketSize, m.CarrierFrames, m.CoalescedPackets)
			}
			if m.CorruptFrames != 0 {
				t.Errorf("clean run counted %d corrupt frames", m.CorruptFrames)
			}
		})
	}
}

// TestWireV2Deterministic: two identical v2 runs produce identical
// timings, deliveries, and wire accounting — the batcher's zero-delay
// flush must not introduce nondeterminism.
func TestWireV2Deterministic(t *testing.T) {
	run := func() *cluster.Result {
		ccfg, pcfg, size := wirev2Scenarios()["nak-v2-loss"]()
		res, err := cluster.Run(context.Background(), ccfg, cluster.ProtoSpec(pcfg), size)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if a.Elapsed != b.Elapsed {
		t.Errorf("elapsed differs: %v vs %v", a.Elapsed, b.Elapsed)
	}
	am, bm := a.Metrics, b.Metrics
	if am.WireFrames != bm.WireFrames || am.WireBytes != bm.WireBytes ||
		am.CarrierFrames != bm.CarrierFrames || am.CompressedFrames != bm.CompressedFrames {
		t.Errorf("wire accounting differs:\n a: %+v\n b: %+v", am, bm)
	}
}

// TestWireV2SmallMessageBytesOnWire is the acceptance comparison: the
// same small-packet transfer under v1 (opted into wire accounting) and
// v2 — coalescing and compression must put measurably fewer bytes on
// the wire despite the 5-byte-per-frame v2 overhead. The NAK sender
// streams whole windows back to back, the shape coalescing targets;
// the ACK sender is ack-clocked one packet per event, so for it only
// the initial window burst can batch.
func TestWireV2SmallMessageBytesOnWire(t *testing.T) {
	base := func() (cluster.Config, core.Config, int) {
		return cluster.Default(8), core.Config{Protocol: core.ProtoNAK,
			PacketSize: 256, WindowSize: 24, PollInterval: 11}, 65536
	}
	ccfg, pcfg, size := base()
	ccfg.CountWire = true
	v1, err := cluster.Run(context.Background(), ccfg, cluster.ProtoSpec(pcfg), size)
	if err != nil {
		t.Fatalf("v1 run: %v", err)
	}
	ccfg, pcfg, size = base()
	pcfg.WireV2 = true
	v2, err := cluster.Run(context.Background(), ccfg, cluster.ProtoSpec(pcfg), size)
	if err != nil {
		t.Fatalf("v2 run: %v", err)
	}
	if !v1.Verified || !v2.Verified {
		t.Fatalf("verification: v1=%v v2=%v", v1.Verified, v2.Verified)
	}
	b1, b2 := v1.Metrics.WireBytes, v2.Metrics.WireBytes
	if b1 == 0 || b2 == 0 {
		t.Fatalf("wire accounting missing: v1=%d v2=%d", b1, b2)
	}
	if b2 >= b1 {
		t.Errorf("v2 put no fewer bytes on the wire: v1=%d v2=%d", b1, b2)
	}
	if f1, f2 := v1.Metrics.WireFrames, v2.Metrics.WireFrames; f2 >= f1 {
		t.Errorf("v2 sent no fewer frames: v1=%d v2=%d", f1, f2)
	}
	if v2.Metrics.WireRawBytes <= v2.Metrics.WireBytes {
		t.Errorf("compression saved nothing: raw=%d wire=%d",
			v2.Metrics.WireRawBytes, v2.Metrics.WireBytes)
	}
	if m := v2.Metrics; m.CarrierFrames == 0 || m.CoalescedPackets == 0 || m.CompressedFrames == 0 {
		t.Errorf("v2 machinery idle: carriers=%d coalesced=%d compressed=%d",
			m.CarrierFrames, m.CoalescedPackets, m.CompressedFrames)
	}
	t.Logf("bytes on wire: v1=%d v2=%d (%.1f%%), frames v1=%d v2=%d, compression %.2fx",
		b1, b2, 100*float64(b2)/float64(b1), v1.Metrics.WireFrames, v2.Metrics.WireFrames,
		float64(v2.Metrics.WireRawBytes)/float64(b2))
}

// TestWireV2CorruptFrameInjection is the 100%-detection acceptance
// test: a deterministic injector damages a fraction of the frames
// arriving at receivers; every damaged frame must be counted and
// dropped (CorruptFrames equals the injection count exactly — no
// damage slips through any decode guard), the protocol must repair the
// losses, and every receiver must still deliver a byte-identical
// message (zero corrupt deliveries). Under v2 the damage is a single
// flipped bit, which the CRC catches; v1 has no checksum, so its row
// injects the damage its decoder can detect — frames cut short of the
// header — and pins that the failed decode is counted, not swallowed.
// The v1-offset row is the damage no decoder can detect: a well-formed
// data packet whose offset word is wrong. The receiver refuses it
// (Receiver.store) and retransmission repairs the gap like any loss.
func TestWireV2CorruptFrameInjection(t *testing.T) {
	everyNinth := func(_, seen, _ int, _ []byte) bool { return seen%9 == 0 }
	rows := map[string]struct {
		wireV2 bool
		// hit picks the frames to damage (rank > 0 always).
		hit    func(rank, seen, injected int, frame []byte) bool
		damage func(seen int, frame []byte) []byte
		// silent damage passes every decode guard: no frame is counted
		// corrupt, and refusing it is the receiver's job.
		silent bool
	}{
		"v2-bitflip": {true, everyNinth, func(seen int, frame []byte) []byte {
			// The input may be shared across receivers of one multicast:
			// corrupt a copy.
			mut := append([]byte(nil), frame...)
			bit := (seen * 13) % (len(mut) * 8)
			mut[bit/8] ^= 1 << (bit % 8)
			return mut
		}, false},
		"v1-truncated": {false, everyNinth, func(seen int, frame []byte) []byte {
			return frame[:1+seen%(packet.HeaderLen-1)]
		}, false},
		// One data frame, at one receiver, whose offset word disagrees
		// with its sequence: a well-formed v1 packet that would land on
		// top of packet 0 if the receiver trusted Aux.
		"v1-offset": {false, func(rank, _, injected int, frame []byte) bool {
			return injected == 0 && rank == 3 && packet.Type(frame[2]) == packet.TypeData &&
				binary.BigEndian.Uint32(frame[8:12]) == 5
		}, func(_ int, frame []byte) []byte {
			mut := append([]byte(nil), frame...)
			binary.BigEndian.PutUint32(mut[12:16], 0)
			return mut
		}, true},
	}
	for name, row := range rows {
		row := row
		t.Run(name, func(t *testing.T) {
			ccfg := cluster.Default(6)
			pcfg := core.Config{Protocol: core.ProtoACK, PacketSize: 1000,
				WindowSize: 8, WireV2: row.wireV2}
			injected := 0
			seen := 0
			ccfg.RxMangle = func(rank int, frame []byte) []byte {
				if rank == 0 {
					return frame // leave the sender's inbound acks alone
				}
				seen++
				if !row.hit(rank, seen, injected, frame) {
					return frame
				}
				injected++
				return row.damage(seen, frame)
			}
			res, err := cluster.Run(context.Background(), ccfg, cluster.ProtoSpec(pcfg), 60000)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if injected == 0 {
				t.Fatal("injector never fired")
			}
			if !res.Completed || !res.Verified {
				t.Fatalf("session did not recover: completed=%v verified=%v", res.Completed, res.Verified)
			}
			want := uint64(injected)
			if row.silent {
				want = 0
			}
			if got := res.Metrics.CorruptFrames; got != want {
				t.Errorf("CorruptFrames = %d, want %d of %d injected: a damaged frame was not detected", got, want, injected)
			}
			if res.Metrics.Retransmissions == 0 {
				t.Error("corruption caused no retransmissions; the injector hit nothing that mattered")
			}
			t.Logf("injected %d corrupt frames of %d seen; %d counted, %d retransmissions repaired them",
				injected, seen, res.Metrics.CorruptFrames, res.Metrics.Retransmissions)
		})
	}
}

// selectiveChurnScenario is one cell of the churn × selective-repeat
// matrix.
type selectiveChurnScenario struct {
	mk          func() (cluster.Config, core.Config, int)
	wantLeft    []core.NodeID
	wantDeliver []core.NodeID
}

// TestChurnSelectiveRepeatMatrix covers the previously untested
// intersection of dynamic membership and selective repeat: a joiner's
// have bitmap is seeded at the join base, so out-of-order and
// below-base packets around the join must neither panic nor
// double-deliver, under both explicit ARQSelective (v1 framing) and
// the v2 default. Every cell runs the full invariant-checker harness.
func TestChurnSelectiveRepeatMatrix(t *testing.T) {
	cells := map[string]selectiveChurnScenario{
		"ack-join": {
			mk: func() (cluster.Config, core.Config, int) {
				ccfg := cluster.Default(10)
				ccfg.Faults = mustFaults(t, "join:5@0.3")
				return ccfg, core.Config{Protocol: core.ProtoACK, PacketSize: 2048, WindowSize: 8}, 200000
			},
			wantDeliver: []core.NodeID{5},
		},
		"nak-join-leave-lossy": {
			mk: func() (cluster.Config, core.Config, int) {
				ccfg := cluster.Default(10)
				ccfg.LossRate = 0.01
				ccfg.Faults = mustFaults(t, "join:5@0.3,leave:2@0.6")
				return ccfg, core.Config{Protocol: core.ProtoNAK, PacketSize: 2048,
					WindowSize: 16, PollInterval: 7}, 200000
			},
			wantLeft:    []core.NodeID{2},
			wantDeliver: []core.NodeID{5},
		},
		"tree-join-peer-catchup": {
			mk: func() (cluster.Config, core.Config, int) {
				ccfg := cluster.Default(12)
				ccfg.Faults = mustFaults(t, "join:4@0.4")
				return ccfg, core.Config{Protocol: core.ProtoTree, PacketSize: 2048,
					WindowSize: 12, TreeHeight: 4, JoinCatchup: core.CatchupPeer}, 150000
			},
			wantDeliver: []core.NodeID{4},
		},
		"ring-double-join": {
			mk: func() (cluster.Config, core.Config, int) {
				ccfg := cluster.Default(8)
				ccfg.Faults = mustFaults(t, "join:3@0.2,join:6@0.5")
				return ccfg, core.Config{Protocol: core.ProtoRing, PacketSize: 2048, WindowSize: 16}, 150000
			},
			wantDeliver: []core.NodeID{3, 6},
		},
	}
	for name, sc := range cells {
		for _, arm := range []string{"v1-selective", "wirev2"} {
			name, sc, arm := name, sc, arm
			t.Run(name+"/"+arm, func(t *testing.T) {
				t.Parallel()
				ccfg, pcfg, size := sc.mk()
				if arm == "wirev2" {
					pcfg.WireV2 = true // ARQAuto resolves to selective repeat
				} else {
					pcfg.ARQ = core.ARQSelective
				}
				out, err := check.Execute(context.Background(), ccfg, pcfg, size)
				if err != nil {
					t.Fatalf("Execute: %v", err)
				}
				if out.Info.RunErr != nil {
					t.Fatalf("run error: %v", out.Info.RunErr)
				}
				for _, v := range out.Violations {
					t.Errorf("violation: %v", v)
				}
				res := out.Info.Result
				if !res.Verified {
					t.Error("delivery not verified")
				}
				if !ranksEqual(res.Left, sc.wantLeft) {
					t.Errorf("Left = %v, want %v", res.Left, sc.wantLeft)
				}
				if len(res.Failed) != 0 || len(res.NeverJoined) != 0 {
					t.Errorf("Failed = %v, NeverJoined = %v, want none", res.Failed, res.NeverJoined)
				}
				delivered := make(map[core.NodeID]bool, len(res.Delivered))
				for _, d := range res.Delivered {
					delivered[d] = true
				}
				for _, want := range sc.wantDeliver {
					if !delivered[want] {
						t.Errorf("joiner %d did not deliver; Delivered = %v", want, res.Delivered)
					}
				}
			})
		}
	}
}
