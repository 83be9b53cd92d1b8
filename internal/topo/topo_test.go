package topo

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rmcast/internal/ethernet"
)

func TestParseCanonicalStrings(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Spec
	}{
		{"single", Spec{Kind: Single}},
		{"two-switch", Spec{Kind: TwoSwitch}},
		{"two-switch@1g", Spec{Kind: TwoSwitch, EdgeRate: ethernet.Rate1Gbps}},
		{"star:4", Spec{Kind: Star, Leaves: 4}},
		{"star:4x16@100m", Spec{Kind: Star, Leaves: 4, HostsPerLeaf: 16, EdgeRate: ethernet.Rate100Mbps}},
		{"star:3,over=4", Spec{Kind: Star, Leaves: 3, Oversub: 4}},
		{"fattree:4x8x32@1g,trunk=100m", Spec{
			Kind: FatTree, Spines: 4, Leaves: 8, HostsPerLeaf: 32,
			EdgeRate: ethernet.Rate1Gbps, TrunkRate: ethernet.Rate100Mbps,
		}},
		{"two-switch,trunk=10m", Spec{Kind: TwoSwitch, TrunkRate: ethernet.Rate10Mbps}},
	} {
		got, err := Parse(tc.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("Parse(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestParseRejectsInvalid(t *testing.T) {
	for _, in := range []string{
		"",
		"ring",                   // unknown kind
		"single:4",               // single takes no dims
		"two-switch:2",           // two-switch takes no dims
		"star",                   // star requires dims
		"star:0",                 // zero leaves
		"star:4x16x2",            // too many dims
		"fattree:4x8",            // fat-tree needs three dims
		"fattree:0x8x32",         // zero spines
		"star:4@100",             // rate without unit
		"star:4@m",               // rate without digits
		"star:4,speed=1g",        // unknown option
		"star:4,trunk",           // option without value
		"star:4,over=0",          // oversub must be >= 1
		"star:4,over=-2",         // negative oversub
		"single,trunk=1g",        // single has no trunks
		"single,over=2",          // single has no trunks
		"star:4,trunk=1g,over=2", // mutually exclusive
	} {
		if spec, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) accepted invalid spec: %+v", in, spec)
		}
	}
}

func TestRateRoundTrip(t *testing.T) {
	for _, s := range []string{"10m", "100m", "1g", "25g", "2500m"} {
		r, err := ParseRate(s)
		if err != nil {
			t.Fatalf("ParseRate(%q): %v", s, err)
		}
		if got := FormatRate(r); got != s && !(s == "2500m" && got == "2500m") {
			// 2500m stays 2500m (not a whole gigabit).
			t.Errorf("FormatRate(ParseRate(%q)) = %q", s, got)
		}
	}
	if got := FormatRate(2_500_000_000); got != "2500m" {
		t.Errorf("FormatRate(2.5G) = %q, want 2500m", got)
	}
}

// randomSpec draws a structurally valid spec from rng.
func randomSpec(rng *rand.Rand) Spec {
	rates := []ethernet.Rate{0, ethernet.Rate10Mbps, ethernet.Rate100Mbps, ethernet.Rate1Gbps}
	var s Spec
	switch rng.Intn(4) {
	case 0:
		s.Kind = Single
	case 1:
		s.Kind = TwoSwitch
	case 2:
		s.Kind = Star
		s.Leaves = 1 + rng.Intn(8)
		s.HostsPerLeaf = rng.Intn(33) // 0 = balanced
	case 3:
		s.Kind = FatTree
		s.Spines = 1 + rng.Intn(4)
		s.Leaves = 1 + rng.Intn(8)
		s.HostsPerLeaf = 1 + rng.Intn(32)
	}
	s.EdgeRate = rates[rng.Intn(len(rates))]
	if s.Kind != Single {
		switch rng.Intn(3) {
		case 1:
			s.TrunkRate = rates[1+rng.Intn(len(rates)-1)]
		case 2:
			s.Oversub = 1 + rng.Intn(10)
		}
	}
	return s
}

func TestStringParseRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		spec := randomSpec(rng)
		if err := spec.Check(); err != nil {
			t.Fatalf("randomSpec produced invalid %+v: %v", spec, err)
		}
		str := spec.String()
		back, err := Parse(str)
		if err != nil {
			t.Fatalf("Parse(String(%+v) = %q): %v", spec, str, err)
		}
		if back != spec {
			t.Fatalf("round trip %q: got %+v, want %+v", str, back, spec)
		}
		if again := back.String(); again != str {
			t.Fatalf("String not canonical: %q vs %q", again, str)
		}
	}
}

func TestCapacityAndValidate(t *testing.T) {
	ft := Spec{Kind: FatTree, Spines: 2, Leaves: 4, HostsPerLeaf: 16}
	if got := ft.Capacity(); got != 64 {
		t.Errorf("fattree 4x16 capacity = %d, want 64", got)
	}
	if err := ft.Validate(64); err != nil {
		t.Errorf("Validate(64) on a 64-host fabric: %v", err)
	}
	if err := ft.Validate(65); err == nil {
		t.Error("Validate(65) on a 64-host fabric should fail")
	}
	if err := ft.Validate(0); err == nil {
		t.Error("Validate(0) should fail")
	}
	// Unbounded shapes.
	for _, s := range []Spec{SingleSpec(), TwoSwitchSpec(), {Kind: Star, Leaves: 3}} {
		if got := s.Capacity(); got != 0 {
			t.Errorf("%v capacity = %d, want 0 (unbounded)", s, got)
		}
		if err := s.Validate(1000); err != nil {
			t.Errorf("%v Validate(1000): %v", s, err)
		}
	}
}

func TestDomains(t *testing.T) {
	for _, tc := range []struct {
		spec  Spec
		hosts int
		want  []int
	}{
		{SingleSpec(), 31, []int{31}},
		{TwoSwitchSpec(), 31, []int{16, 15}},
		{TwoSwitchSpec(), 16, []int{16}},
		{TwoSwitchSpec(), 5, []int{5}},
		{Spec{Kind: Star, Leaves: 4}, 10, []int{3, 3, 2, 2}},
		{Spec{Kind: Star, Leaves: 4, HostsPerLeaf: 4}, 10, []int{4, 4, 2}},
		{Spec{Kind: FatTree, Spines: 2, Leaves: 4, HostsPerLeaf: 16}, 33, []int{16, 16, 1}},
	} {
		got := tc.spec.Domains(tc.hosts)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%v Domains(%d) = %v, want %v", tc.spec, tc.hosts, got, tc.want)
		}
		sum, max := 0, 0
		for _, d := range got {
			sum += d
			if d > max {
				max = d
			}
		}
		if sum != tc.hosts {
			t.Errorf("%v Domains(%d) sums to %d", tc.spec, tc.hosts, sum)
		}
		if m := tc.spec.MaxDomain(tc.hosts); m != max {
			t.Errorf("%v MaxDomain(%d) = %d, want %d", tc.spec, tc.hosts, m, max)
		}
	}
}

// checkLayout verifies the structural invariants every layout must hold:
// all hosts placed on host-bearing switches, flood trunks forming a
// spanning tree, and a route from every switch to every host.
func checkLayout(t *testing.T, l *Layout) {
	t.Helper()
	for h, sw := range l.HostSwitch {
		if sw < 0 || sw >= len(l.Switches) {
			t.Fatalf("host %d on out-of-range switch %d", h, sw)
		}
	}
	// Flood trunks must form a spanning tree: switches-1 edges, all
	// switches reachable.
	flood := 0
	reached := map[int]bool{0: true}
	for changed := true; changed; {
		changed = false
		for _, tr := range l.Trunks {
			if !tr.Flood {
				continue
			}
			if reached[tr.A] != reached[tr.B] {
				reached[tr.A], reached[tr.B] = true, true
				changed = true
			}
		}
	}
	for _, tr := range l.Trunks {
		if tr.Flood {
			flood++
		}
	}
	if flood != len(l.Switches)-1 {
		t.Fatalf("flood trunks = %d, want %d (spanning tree over %d switches)",
			flood, len(l.Switches)-1, len(l.Switches))
	}
	for s := range l.Switches {
		if !reached[s] {
			t.Fatalf("switch %d unreachable over flood trunks", s)
		}
	}
	// Every (switch, host) pair must have a route: local (-1) exactly
	// when the host attaches to the switch, a valid trunk otherwise.
	for s := range l.Switches {
		for h := 0; h < l.Hosts; h++ {
			r := l.Route(s, h)
			if l.HostSwitch[h] == s {
				if r != -1 {
					t.Fatalf("Route(%d, local host %d) = %d, want -1", s, h, r)
				}
				continue
			}
			if r < 0 || r >= len(l.Trunks) {
				t.Fatalf("Route(%d, %d) = %d: no valid trunk", s, h, r)
			}
			tr := l.Trunks[r]
			if tr.A != s && tr.B != s {
				t.Fatalf("Route(%d, %d) = trunk %d which is not incident (%d-%d)", s, h, r, tr.A, tr.B)
			}
		}
	}
}

func TestLayoutShapes(t *testing.T) {
	for _, tc := range []struct {
		spec         Spec
		hosts        int
		wantSwitches int
		wantTrunks   int
	}{
		{SingleSpec(), 8, 1, 0},
		{TwoSwitchSpec(), 8, 1, 0},
		{TwoSwitchSpec(), 31, 2, 1},
		{Spec{Kind: Star, Leaves: 4, HostsPerLeaf: 16}, 31, 5, 4},
		{Spec{Kind: FatTree, Spines: 2, Leaves: 4, HostsPerLeaf: 16}, 33, 6, 8},
		{Spec{Kind: FatTree, Spines: 4, Leaves: 32, HostsPerLeaf: 33}, 1026, 36, 128},
	} {
		t.Run(tc.spec.String(), func(t *testing.T) {
			l, err := tc.spec.Layout(tc.hosts, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(l.Switches) != tc.wantSwitches {
				t.Errorf("switches = %d, want %d", len(l.Switches), tc.wantSwitches)
			}
			if len(l.Trunks) != tc.wantTrunks {
				t.Errorf("trunks = %d, want %d", len(l.Trunks), tc.wantTrunks)
			}
			checkLayout(t, l)
		})
	}
}

func TestLayoutDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		spec := randomSpec(rng)
		hosts := 1 + rng.Intn(40)
		if cap := spec.Capacity(); cap > 0 && hosts > cap {
			hosts = cap
		}
		a, errA := spec.Layout(hosts, ethernet.Rate100Mbps)
		b, errB := spec.Layout(hosts, ethernet.Rate100Mbps)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%v/%d: error mismatch %v vs %v", spec, hosts, errA, errB)
		}
		if errA != nil {
			continue
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%v/%d: layouts differ across identical expansions", spec, hosts)
		}
		checkLayout(t, a)
	}
}

func TestLayoutRates(t *testing.T) {
	// Explicit trunk rate.
	spec := Spec{Kind: Star, Leaves: 2, EdgeRate: ethernet.Rate1Gbps, TrunkRate: ethernet.Rate100Mbps}
	l, err := spec.Layout(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, sw := range l.Switches {
		if sw.Rate != ethernet.Rate1Gbps {
			t.Errorf("switch %s rate = %v, want 1g", sw.Name, sw.Rate)
		}
	}
	for _, tr := range l.Trunks {
		if tr.Rate != ethernet.Rate100Mbps {
			t.Errorf("trunk rate = %v, want 100m", tr.Rate)
		}
	}
	// Oversubscription ratio derives the trunk rate.
	spec = Spec{Kind: Star, Leaves: 2, EdgeRate: ethernet.Rate1Gbps, Oversub: 10}
	if l, err = spec.Layout(8, 0); err != nil {
		t.Fatal(err)
	}
	for _, tr := range l.Trunks {
		if tr.Rate != ethernet.Rate100Mbps {
			t.Errorf("oversub 10 trunk rate = %v, want 100m", tr.Rate)
		}
	}
	// Default rate substitutes for an unset edge rate.
	spec = Spec{Kind: Star, Leaves: 2}
	if l, err = spec.Layout(8, ethernet.Rate10Mbps); err != nil {
		t.Fatal(err)
	}
	if l.Switches[0].Rate != ethernet.Rate10Mbps {
		t.Errorf("default rate not applied: %v", l.Switches[0].Rate)
	}
}

func TestCannedSpecsAreValid(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Canned() {
		s := c.Spec.String()
		if seen[s] {
			t.Errorf("duplicate canned spec %q", s)
		}
		seen[s] = true
		back, err := Parse(s)
		if err != nil {
			t.Errorf("canned spec %q does not parse: %v", s, err)
			continue
		}
		if back != c.Spec {
			t.Errorf("canned spec %q round-trips to %+v", s, back)
		}
	}
	if !seen["single"] || !seen["two-switch"] {
		t.Error("canned list must include the legacy enum equivalents")
	}
}

func TestFatTreeSpreadsEqualCostPaths(t *testing.T) {
	// With 4 spines, unicast routes from one leaf to remote hosts must
	// use more than one spine trunk (acknowledgment load-balancing).
	spec := Spec{Kind: FatTree, Spines: 4, Leaves: 4, HostsPerLeaf: 8}
	l, err := spec.Layout(32, 0)
	if err != nil {
		t.Fatal(err)
	}
	used := map[int]bool{}
	for h := 0; h < 32; h++ {
		if l.HostSwitch[h] == 0 {
			continue
		}
		used[l.Route(0, h)] = true
	}
	if len(used) < 2 {
		t.Errorf("leaf 0 routes all remote traffic over %d trunk(s), want spread across spines", len(used))
	}
}

func ExampleParse() {
	spec, _ := Parse("fattree:2x4x16@100m,trunk=1g")
	fmt.Println(spec)
	fmt.Println(spec.Capacity(), "hosts max")
	// Output:
	// fattree:2x4x16@100m,trunk=1g
	// 64 hosts max
}

// referenceRoutes is a literal copy of buildRoutes as it stood before
// its candidate slice was hoisted out of the switch × host loop: the
// reference TestRoutesMatchReference holds the optimised loop to.
func referenceRoutes(l *Layout) [][]int {
	ns := len(l.Switches)
	adj := make([][]int, ns)
	for t, tr := range l.Trunks {
		adj[tr.A] = append(adj[tr.A], t)
		adj[tr.B] = append(adj[tr.B], t)
	}
	dist := make([][]int, ns)
	for d := 0; d < ns; d++ {
		dist[d] = make([]int, ns)
		for i := range dist[d] {
			dist[d][i] = -1
		}
		dist[d][d] = 0
		frontier := []int{d}
		for len(frontier) > 0 {
			var next []int
			for _, s := range frontier {
				for _, t := range adj[s] {
					peer := l.Trunks[t].A + l.Trunks[t].B - s
					if dist[d][peer] < 0 {
						dist[d][peer] = dist[d][s] + 1
						next = append(next, peer)
					}
				}
			}
			frontier = next
		}
	}
	routes := make([][]int, ns)
	for s := 0; s < ns; s++ {
		routes[s] = make([]int, l.Hosts)
		for h := 0; h < l.Hosts; h++ {
			d := l.HostSwitch[h]
			if d == s {
				routes[s][h] = -1
				continue
			}
			var candidates []int
			for _, t := range adj[s] {
				peer := l.Trunks[t].A + l.Trunks[t].B - s
				if dist[d][peer] >= 0 && dist[d][peer] == dist[d][s]-1 {
					candidates = append(candidates, t)
				}
			}
			if len(candidates) == 0 {
				routes[s][h] = -1
				continue
			}
			routes[s][h] = candidates[(s+h)%len(candidates)]
		}
	}
	return routes
}

// TestRoutesMatchReference checks every switch × host next hop of every
// canned fabric, at the paper's 31 hosts and at the 1,025 of the scale
// runs, against the reference loop.
func TestRoutesMatchReference(t *testing.T) {
	for _, c := range Canned() {
		laidOut := false
		for _, hosts := range []int{31, 1025} {
			l, err := c.Spec.Layout(hosts, 0)
			if err != nil {
				continue // the fabric does not hold this many hosts
			}
			laidOut = true
			want := referenceRoutes(l)
			for sw := range l.Switches {
				for h := 0; h < hosts; h++ {
					if got := l.Route(sw, h); got != want[sw][h] {
						t.Fatalf("%v at %d hosts: Route(%d, %d) = %d, reference %d",
							c.Spec, hosts, sw, h, got, want[sw][h])
					}
				}
			}
		}
		if !laidOut {
			t.Errorf("%v holds neither 31 nor 1025 hosts", c.Spec)
		}
	}
}
