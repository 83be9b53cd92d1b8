package core

import (
	"bytes"
	"testing"
	"time"

	"rmcast/internal/packet"
)

// allocRequestTimes records the instants at which the sender multicasts an
// allocation request, as seen on its copy to receiver 1.
func allocRequestTimes(m *mockNet) *[]time.Duration {
	var at []time.Duration
	prev := m.drop
	m.drop = func(from, to NodeID, p *packet.Packet) bool {
		if from == SenderID && to == 1 && p.Type == packet.TypeAllocReq {
			at = append(at, m.s.Now())
		}
		return prev != nil && prev(from, to, p)
	}
	return &at
}

// TestAllocRollCallDrainsInOneRound reads N confirmations one per
// 50 µs, N × 50 µs past AllocTimeout: the sender is still reading the
// first round when AllocTimeout expires, so it must wait for the
// answers instead of multicasting a second request.
func TestAllocRollCallDrainsInOneRound(t *testing.T) {
	const n = 300 // 15 ms of answers against a 10 ms timeout
	cfg := Config{
		Protocol:       ProtoACK,
		NumReceivers:   n,
		PacketSize:     1000,
		WindowSize:     8,
		RetransTimeout: 20 * time.Millisecond,
		AllocTimeout:   10 * time.Millisecond,
		MaxRetries:     2,
	}
	ses, err := newSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ses.net.delay = func(from, to NodeID, p *packet.Packet) time.Duration {
		if p.Type == packet.TypeAllocOK {
			return time.Duration(from) * 50 * time.Microsecond
		}
		return 0
	}
	msg := pattern(4000)
	if !ses.run(msg, 10*time.Second) {
		t.Fatal("sender did not terminate")
	}
	st := ses.sender.Stats()
	if st.AllocSent != 1 {
		t.Errorf("AllocSent = %d, want 1: the sender retried while still reading answers", st.AllocSent)
	}
	if st.Timeouts != 0 || st.ProbesSent != 0 || len(ses.sender.Failed()) != 0 {
		t.Errorf("stats = %+v, failed %v: a draining roll call is not a stall", st, ses.sender.Failed())
	}
}

// TestAllocRetryBacksOffForSilentReceiver: a receiver that never
// answers still gets retries 1×, 2×, 4× … AllocTimeout after the last
// new confirmation, and is probed and ejected.
func TestAllocRetryBacksOffForSilentReceiver(t *testing.T) {
	cfg := failureConfig(ProtoACK, 4)
	cfg.AllocTimeout = 10 * time.Millisecond
	cfg.RetransTimeout = 50 * time.Millisecond
	ses, err := newSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ses.net.drop = crash(2)
	sends := allocRequestTimes(ses.net)
	msg := pattern(5000)
	if !ses.run(msg, 10*time.Second) {
		t.Fatal("sender did not terminate")
	}
	if failed := ses.sender.Failed(); len(failed) != 1 || failed[0] != 2 {
		t.Fatalf("Failed = %v, want [2]", failed)
	}
	for r := 1; r <= 4; r++ {
		if r != 2 && !bytes.Equal(ses.delivered[r], msg) {
			t.Errorf("survivor %d did not deliver", r)
		}
	}
	at := *sends
	if len(at) < 4 {
		t.Fatalf("allocation requests at %v, want at least 4 before the ejection", at)
	}
	// The first period runs from the last new confirmation, one round
	// trip after the request; every later one doubles, no answer being
	// new.
	rtt := 2 * ses.net.latency
	if got, want := at[1]-at[0], cfg.AllocTimeout+rtt; got != want {
		t.Errorf("first retry after %v, want %v (AllocTimeout after the last confirmation)", got, want)
	}
	for i := 2; i < 4; i++ {
		if got, want := at[i]-at[i-1], cfg.AllocTimeout<<(i-1); got != want {
			t.Errorf("retry %d after %v, want %v", i, got, want)
		}
	}
	if st := ses.sender.Stats(); st.ProbesSent == 0 || st.Ejected != 1 {
		t.Errorf("stats = %+v, want probes and one ejection", st)
	}
}

// TestDataPhaseStartsAtUnitBackoff: a roll call that backed off (one
// receiver answers only the fourth request) hands the data phase a
// multiplier of 1, under the fixed and the adaptive timer policies.
func TestDataPhaseStartsAtUnitBackoff(t *testing.T) {
	for _, adaptive := range []bool{false, true} {
		name := "fixed"
		if adaptive {
			name = "adaptive"
		}
		t.Run(name, func(t *testing.T) {
			cfg := failureConfig(ProtoACK, 4)
			cfg.MaxRetries = 0
			cfg.AdaptiveRTO = adaptive
			ses, err := newSession(cfg)
			if err != nil {
				t.Fatal(err)
			}
			requests := 0
			ses.net.drop = func(from, to NodeID, p *packet.Packet) bool {
				if to == 3 && p.Type == packet.TypeAllocReq {
					requests++
					return requests < 4
				}
				return false
			}
			checked := false
			ses.net.armed = func(self NodeID) {
				s := ses.sender
				if self != SenderID || s.phase != phaseData || checked {
					return
				}
				checked = true
				if s.rtoMult != 1 {
					t.Errorf("first data timer armed at multiplier %d, want 1", s.rtoMult)
				}
				if s.rto != nil && s.rto.backoff != 0 {
					t.Errorf("first data timer armed at estimator backoff %d, want 0", s.rto.backoff)
				}
			}
			if !ses.run(pattern(5000), 10*time.Second) {
				t.Fatal("sender did not terminate")
			}
			if st := ses.sender.Stats(); st.AllocSent != 4 {
				t.Errorf("AllocSent = %d, want 4", st.AllocSent)
			}
			if !checked {
				t.Error("no data-phase timer was armed")
			}
		})
	}
}
