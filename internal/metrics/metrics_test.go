package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"rmcast/internal/packet"
)

func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Load() != 0 {
		t.Fatal("nil counter should load 0")
	}
	var g *Gauge
	g.Set(3)
	g.Add(1)
	if g.Load() != 0 {
		t.Fatal("nil gauge should load 0")
	}
	var h *Histogram
	h.Observe(time.Second)
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatal("nil histogram should snapshot empty")
	}
	var sess *Session
	sess.CountSend(packet.TypeData)
	sess.CountRecv(packet.TypeAck)
	sess.CountRetransmission()
	sess.CountNak()
	sess.CountEjection()
	sess.AddOverflowDrops(2)
	sess.CountSendError()
	sess.CountRecvQEviction()
	sess.AddSenderBusy(time.Second)
	sess.SetSenderBusy(time.Second)
	sess.ObserveCompletion(1, time.Second)
	if sess.Registry() != nil {
		t.Fatal("nil session registry should be nil")
	}
	m := sess.Snapshot()
	if m.TotalSent() != 0 || m.Retransmissions != 0 {
		t.Fatal("nil session snapshot should be zero")
	}
}

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(9)
	if got := c.Load(); got != 10 {
		t.Fatalf("counter = %d, want 10", got)
	}
	var g Gauge
	g.Set(7)
	g.Add(-2)
	if got := g.Load(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{time.Microsecond, 0},
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 2},
		{1024 * time.Microsecond, 10},
		{365 * 24 * time.Hour, histBuckets - 1},
	}
	for _, tc := range cases {
		if got := bucketIndex(tc.d); got != tc.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
	var h Histogram
	h.Observe(time.Millisecond)
	h.Observe(3 * time.Millisecond)
	h.Observe(-time.Second) // clamped to zero
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3", s.Count)
	}
	if s.Max != 3*time.Millisecond {
		t.Fatalf("max = %v, want 3ms", s.Max)
	}
	if want := (4 * time.Millisecond) / 3; s.Mean() != want {
		t.Fatalf("mean = %v, want %v", s.Mean(), want)
	}
	var total uint64
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total != 3 {
		t.Fatalf("bucket total = %d, want 3", total)
	}
}

func TestSessionSnapshot(t *testing.T) {
	s := NewSession()
	s.CountSend(packet.TypeData)
	s.CountSend(packet.TypeData)
	s.CountSend(packet.TypeAllocReq)
	s.CountRecv(packet.TypeAck)
	s.CountRetransmission()
	s.CountNak()
	s.CountEjection()
	s.AddOverflowDrops(4)
	s.SetSenderBusy(250 * time.Millisecond)
	s.ObserveCompletion(1, 10*time.Millisecond)
	s.ObserveCompletion(2, 20*time.Millisecond)

	m := s.Snapshot()
	if m.Sent["data"] != 2 || m.Sent["alloc-req"] != 1 {
		t.Fatalf("sent map wrong: %v", m.Sent)
	}
	if m.Received["ack"] != 1 {
		t.Fatalf("received map wrong: %v", m.Received)
	}
	if m.TotalSent() != 3 || m.TotalReceived() != 1 {
		t.Fatalf("totals wrong: %d/%d", m.TotalSent(), m.TotalReceived())
	}
	if m.Retransmissions != 1 || m.NaksSent != 1 || m.Ejections != 1 || m.BufferOverflowDrops != 4 {
		t.Fatalf("scalar counters wrong: %+v", m)
	}
	if m.SenderBusy != 250*time.Millisecond {
		t.Fatalf("sender busy = %v", m.SenderBusy)
	}
	if m.Completion[1] != 10*time.Millisecond || m.Completion[2] != 20*time.Millisecond {
		t.Fatalf("completion map wrong: %v", m.Completion)
	}
	if m.CompletionHist.Count != 2 {
		t.Fatalf("completion hist count = %d", m.CompletionHist.Count)
	}

	// Out-of-range types must not panic or count.
	s.CountSend(packet.Type(200))
	s.CountRecv(packet.Type(200))
	if got := s.Snapshot().TotalSent(); got != 3 {
		t.Fatalf("out-of-range type counted: %d", got)
	}
}

func TestSessionConcurrent(t *testing.T) {
	s := NewSession()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				s.CountSend(packet.TypeData)
				s.CountRecv(packet.TypeData)
				s.CountRetransmission()
				s.AddSenderBusy(time.Microsecond)
			}
			s.ObserveCompletion(rank, time.Duration(rank+1)*time.Millisecond)
		}(i)
	}
	wg.Wait()
	m := s.Snapshot()
	if m.Sent["data"] != 8000 || m.Received["data"] != 8000 || m.Retransmissions != 8000 {
		t.Fatalf("lost updates: %+v", m)
	}
	if m.SenderBusy != 8000*time.Microsecond {
		t.Fatalf("sender busy = %v", m.SenderBusy)
	}
	if len(m.Completion) != 8 {
		t.Fatalf("completion entries = %d", len(m.Completion))
	}
}

func TestRegistryValuesAndFprint(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("alpha")
	g := r.Gauge("beta")
	h := r.Histogram("gamma")
	c.Add(3)
	g.Set(-7)
	h.Observe(time.Millisecond)
	scalars, hists := r.Values()
	if scalars["alpha"] != 3 || scalars["beta"] != -7 {
		t.Fatalf("scalars wrong: %v", scalars)
	}
	if hists["gamma"].Count != 1 {
		t.Fatalf("hist wrong: %v", hists)
	}
	var buf bytes.Buffer
	if err := r.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"alpha", "beta", "gamma", "count=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fprint output missing %q:\n%s", want, out)
		}
	}
	// Nil registry is queryable.
	var nr *Registry
	s2, h2 := nr.Values()
	if len(s2) != 0 || len(h2) != 0 {
		t.Fatal("nil registry should yield empty maps")
	}
}

func TestMetricsFprint(t *testing.T) {
	s := NewSession()
	s.CountSend(packet.TypeData)
	s.CountRecv(packet.TypeNak)
	s.CountRetransmission()
	s.ObserveCompletion(1, time.Millisecond)
	var buf bytes.Buffer
	if err := s.Snapshot().Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"sent.data", "received.nak", "retransmissions", "completion_latency"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
}

// TestLiveTransportCounters: send errors and receive-queue evictions
// show in the snapshot, the dump and a merge when they happened, and
// leave a simulator's JSON form and dump unchanged when they did not.
func TestLiveTransportCounters(t *testing.T) {
	quiet := NewSession().Snapshot()
	js, err := json.Marshal(quiet)
	if err != nil {
		t.Fatal(err)
	}
	var dump bytes.Buffer
	if err := quiet.Fprint(&dump); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"send_errors", "recvq_evictions"} {
		if strings.Contains(string(js), name) || strings.Contains(dump.String(), name) {
			t.Errorf("a session that never counted %s shows it:\n%s\n%s", name, js, dump.String())
		}
	}

	s := NewSession()
	s.CountSendError()
	s.CountRecvQEviction()
	s.CountRecvQEviction()
	m := s.Snapshot()
	if m.SendErrors != 1 || m.RecvQEvictions != 2 {
		t.Fatalf("snapshot: send_errors=%d recvq_evictions=%d, want 1 and 2", m.SendErrors, m.RecvQEvictions)
	}
	dump.Reset()
	if err := m.Fprint(&dump); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"send_errors                      1\n", "recvq_evictions                  2\n"} {
		if !strings.Contains(dump.String(), want) {
			t.Errorf("dump missing %q:\n%s", want, dump.String())
		}
	}
	if got := Merge(m, m); got.SendErrors != 2 || got.RecvQEvictions != 4 {
		t.Errorf("merge: send_errors=%d recvq_evictions=%d, want 2 and 4", got.SendErrors, got.RecvQEvictions)
	}
}

// TestNewSessionAllocs: a session, its registry and its instruments
// are one allocation, so building one per run or per live node is
// cheap.
func TestNewSessionAllocs(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() { NewSession() }); allocs > 2 {
		t.Errorf("NewSession allocates %.0f objects, want at most 2", allocs)
	}
}
