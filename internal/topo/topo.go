// Package topo describes switched Ethernet fabrics declaratively. A
// Spec is a compact, parseable description of a switch topology —
// single switch, the paper's two-switch testbed, a star-of-stars, or a
// two-level fat-tree — together with per-link speeds and trunk
// oversubscription. Layout expands a Spec for a concrete host count
// into an ordered wiring plan (switches, host placement, trunks,
// forwarding routes, and a flood spanning tree) that the cluster
// builder walks over the internal/ethernet primitives.
//
// The string grammar (Parse/String round-trip):
//
//	spec    = kind [ "@" rate ] { "," option }
//	kind    = "single" | "two-switch"
//	        | "star:" leaves [ "x" hostsPerLeaf ]
//	        | "fattree:" spines "x" leaves "x" hostsPerLeaf
//	option  = "trunk=" rate | "over=" int
//	rate    = int ( "m" | "g" )
//
// Examples: "single", "two-switch", "star:4x16@100m,trunk=1g",
// "fattree:4x8x32@1g,trunk=100m", "star:3,over=4".
package topo

import (
	"fmt"
	"strconv"
	"strings"

	"rmcast/internal/ethernet"
)

// Kind selects the fabric shape.
type Kind int

const (
	// Single is one switch holding every host.
	Single Kind = iota
	// TwoSwitch is the paper's Figure 7 testbed: hosts 0..15 on switch
	// A, the rest on switch B, one trunk between them. With 16 hosts or
	// fewer, switch B is never built (matching the legacy builder).
	TwoSwitch
	// Star is a star-of-stars: leaf switches holding the hosts, each
	// trunked to one core switch (the Grid cluster-of-clusters shape).
	Star
	// FatTree is a two-level fat-tree: every leaf switch trunks to
	// every spine switch, giving Spines equal-cost paths between leaves.
	FatTree
)

func (k Kind) String() string {
	switch k {
	case Single:
		return "single"
	case TwoSwitch:
		return "two-switch"
	case Star:
		return "star"
	case FatTree:
		return "fattree"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Spec is a declarative fabric description. The zero value is a single
// switch at the runner's default link rate.
type Spec struct {
	// Kind is the fabric shape.
	Kind Kind
	// Spines is the number of spine switches (FatTree only).
	Spines int
	// Leaves is the number of host-bearing leaf switches (Star and
	// FatTree).
	Leaves int
	// HostsPerLeaf is each leaf's host capacity. Required for FatTree;
	// for Star, zero spreads hosts evenly across the leaves.
	HostsPerLeaf int
	// EdgeRate is the host-facing port speed; zero uses the runner's
	// default link rate.
	EdgeRate ethernet.Rate
	// TrunkRate is the inter-switch trunk speed; zero derives it from
	// EdgeRate and Oversub. Mutually exclusive with Oversub.
	TrunkRate ethernet.Rate
	// Oversub is the trunk oversubscription ratio: trunks run at
	// edge-rate / Oversub. Zero means trunks match the edge rate.
	Oversub int
}

// SingleSpec returns the canned spec equivalent to the legacy
// SingleSwitch topology enum.
func SingleSpec() Spec { return Spec{Kind: Single} }

// TwoSwitchSpec returns the canned spec equivalent to the legacy
// TwoSwitch topology enum (the paper's Figure 7 testbed).
func TwoSwitchSpec() Spec { return Spec{Kind: TwoSwitch} }

// Canned lists the built-in specs with a short description each, for
// CLI helpers like `-topo list`.
func Canned() []struct {
	Spec Spec
	Note string
} {
	return []struct {
		Spec Spec
		Note string
	}{
		{SingleSpec(), "one switch, every host (legacy single-switch)"},
		{TwoSwitchSpec(), "the paper's Figure 7 testbed: split at host 16, one trunk (legacy two-switch)"},
		{Spec{Kind: Star, Leaves: 4, HostsPerLeaf: 16, EdgeRate: ethernet.Rate100Mbps}, "star-of-stars: 4 leaves x 16 hosts around one core"},
		{Spec{Kind: FatTree, Spines: 2, Leaves: 4, HostsPerLeaf: 16, EdgeRate: ethernet.Rate100Mbps}, "fat-tree: 4 leaves x 16 hosts, 2 spines"},
		{Spec{Kind: FatTree, Spines: 4, Leaves: 32, HostsPerLeaf: 33, EdgeRate: ethernet.Rate1Gbps}, "1k-receiver scale fabric (fits 1056 hosts)"},
	}
}

// ParseRate parses a link rate: an integer followed by "m" (Mbps) or
// "g" (Gbps), e.g. "10m", "100m", "1g".
func ParseRate(s string) (ethernet.Rate, error) {
	if len(s) < 2 {
		return 0, fmt.Errorf("topo: bad rate %q (want e.g. 100m or 1g)", s)
	}
	unit := ethernet.Rate(0)
	switch s[len(s)-1] {
	case 'm':
		unit = 1_000_000
	case 'g':
		unit = 1_000_000_000
	default:
		return 0, fmt.Errorf("topo: bad rate suffix in %q (want m or g)", s)
	}
	n, err := strconv.Atoi(s[:len(s)-1])
	if err != nil || n < 1 {
		return 0, fmt.Errorf("topo: bad rate %q (want e.g. 100m or 1g)", s)
	}
	return ethernet.Rate(n) * unit, nil
}

// FormatRate renders a rate in the grammar's form ("100m", "1g").
// Rates that are not whole megabits fall back to the raw bit count,
// which ParseRate does not accept — such rates cannot appear in specs.
func FormatRate(r ethernet.Rate) string {
	switch {
	case r >= 1_000_000_000 && r%1_000_000_000 == 0:
		return fmt.Sprintf("%dg", r/1_000_000_000)
	case r >= 1_000_000 && r%1_000_000 == 0:
		return fmt.Sprintf("%dm", r/1_000_000)
	default:
		return fmt.Sprintf("%dbps", int64(r))
	}
}

// Parse converts a spec string (see the package grammar) into a Spec.
func Parse(s string) (Spec, error) {
	var spec Spec
	parts := strings.Split(s, ",")
	head := parts[0]
	if at := strings.IndexByte(head, '@'); at >= 0 {
		rate, err := ParseRate(head[at+1:])
		if err != nil {
			return Spec{}, err
		}
		spec.EdgeRate = rate
		head = head[:at]
	}
	kind, dims, hasDims := strings.Cut(head, ":")
	switch kind {
	case "single":
		spec.Kind = Single
	case "two-switch":
		spec.Kind = TwoSwitch
	case "star":
		spec.Kind = Star
	case "fattree":
		spec.Kind = FatTree
	default:
		return Spec{}, fmt.Errorf("topo: unknown fabric kind %q in %q", kind, s)
	}
	switch spec.Kind {
	case Single, TwoSwitch:
		if hasDims {
			return Spec{}, fmt.Errorf("topo: %s takes no dimensions (got %q)", kind, s)
		}
	case Star:
		d, err := parseDims(kind, dims, 1, 2)
		if err != nil {
			return Spec{}, err
		}
		spec.Leaves = d[0]
		if len(d) == 2 {
			spec.HostsPerLeaf = d[1]
		}
	case FatTree:
		d, err := parseDims(kind, dims, 3, 3)
		if err != nil {
			return Spec{}, err
		}
		spec.Spines, spec.Leaves, spec.HostsPerLeaf = d[0], d[1], d[2]
	}
	for _, opt := range parts[1:] {
		key, val, ok := strings.Cut(opt, "=")
		if !ok {
			return Spec{}, fmt.Errorf("topo: bad option %q in %q (want key=value)", opt, s)
		}
		switch key {
		case "trunk":
			rate, err := ParseRate(val)
			if err != nil {
				return Spec{}, err
			}
			spec.TrunkRate = rate
		case "over":
			k, err := strconv.Atoi(val)
			if err != nil || k < 1 {
				return Spec{}, fmt.Errorf("topo: bad oversubscription %q in %q (want a positive integer)", val, s)
			}
			spec.Oversub = k
		default:
			return Spec{}, fmt.Errorf("topo: unknown option %q in %q (valid: trunk, over)", key, s)
		}
	}
	if err := spec.Check(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// parseDims splits an "AxBxC" dimension list, requiring between min
// and max positive components.
func parseDims(kind, dims string, min, max int) ([]int, error) {
	if dims == "" {
		return nil, fmt.Errorf("topo: %s requires dimensions (e.g. %s:4x8)", kind, kind)
	}
	fields := strings.Split(dims, "x")
	if len(fields) < min || len(fields) > max {
		return nil, fmt.Errorf("topo: %s takes %d-%d dimensions, got %q", kind, min, max, dims)
	}
	out := make([]int, len(fields))
	for i, f := range fields {
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("topo: bad dimension %q in %q", f, dims)
		}
		out[i] = n
	}
	return out, nil
}

// String renders the spec in the canonical grammar form; Parse inverts
// it for every spec that passes Check.
func (s Spec) String() string {
	var b strings.Builder
	b.WriteString(s.Kind.String())
	switch s.Kind {
	case Star:
		fmt.Fprintf(&b, ":%d", s.Leaves)
		if s.HostsPerLeaf > 0 {
			fmt.Fprintf(&b, "x%d", s.HostsPerLeaf)
		}
	case FatTree:
		fmt.Fprintf(&b, ":%dx%dx%d", s.Spines, s.Leaves, s.HostsPerLeaf)
	}
	if s.EdgeRate != 0 {
		b.WriteByte('@')
		b.WriteString(FormatRate(s.EdgeRate))
	}
	if s.TrunkRate != 0 {
		b.WriteString(",trunk=")
		b.WriteString(FormatRate(s.TrunkRate))
	}
	if s.Oversub != 0 {
		fmt.Fprintf(&b, ",over=%d", s.Oversub)
	}
	return b.String()
}

// Check validates the spec's shape independent of any host count.
func (s Spec) Check() error {
	switch s.Kind {
	case Single, TwoSwitch:
		if s.Spines != 0 || s.Leaves != 0 || s.HostsPerLeaf != 0 {
			return fmt.Errorf("topo: %v takes no dimensions", s.Kind)
		}
		if s.Kind == Single && (s.TrunkRate != 0 || s.Oversub != 0) {
			return fmt.Errorf("topo: single has no trunks; trunk/over do not apply")
		}
	case Star:
		if s.Spines != 0 {
			return fmt.Errorf("topo: star has no spines")
		}
		if s.Leaves < 1 {
			return fmt.Errorf("topo: star requires at least 1 leaf")
		}
		if s.HostsPerLeaf < 0 {
			return fmt.Errorf("topo: negative HostsPerLeaf")
		}
	case FatTree:
		if s.Spines < 1 || s.Leaves < 1 || s.HostsPerLeaf < 1 {
			return fmt.Errorf("topo: fattree requires spines, leaves, and hosts-per-leaf >= 1")
		}
	default:
		return fmt.Errorf("topo: unknown kind %d", int(s.Kind))
	}
	if s.Oversub < 0 {
		return fmt.Errorf("topo: negative oversubscription ratio")
	}
	if s.TrunkRate != 0 && s.Oversub != 0 {
		return fmt.Errorf("topo: trunk rate and oversubscription ratio are mutually exclusive")
	}
	if s.EdgeRate < 0 || s.TrunkRate < 0 {
		return fmt.Errorf("topo: negative link rate")
	}
	return nil
}

// Validate checks the spec against a concrete host count (sender plus
// receivers).
func (s Spec) Validate(hosts int) error {
	if err := s.Check(); err != nil {
		return err
	}
	if hosts < 1 {
		return fmt.Errorf("topo: need at least one host")
	}
	if cap := s.Capacity(); cap > 0 && hosts > cap {
		return fmt.Errorf("topo: %v holds at most %d hosts, got %d", s, cap, hosts)
	}
	return nil
}

// Capacity returns the maximum host count the spec can hold, or 0 for
// unbounded (Single, TwoSwitch, and Star with balanced placement).
func (s Spec) Capacity() int {
	if (s.Kind == Star || s.Kind == FatTree) && s.HostsPerLeaf > 0 {
		return s.Leaves * s.HostsPerLeaf
	}
	return 0
}

// Domains returns the number of hosts on each host-bearing switch, in
// host order. The protocol-scaling helpers size ACK-aggregation chains
// and ring partitions from these switch-domain boundaries.
func (s Spec) Domains(hosts int) []int {
	switch s.Kind {
	case Single:
		return []int{hosts}
	case TwoSwitch:
		if hosts <= 16 {
			return []int{hosts}
		}
		return []int{16, hosts - 16}
	default:
		counts := s.leafCounts(hosts)
		var out []int
		for _, c := range counts {
			if c > 0 {
				out = append(out, c)
			}
		}
		return out
	}
}

// MaxDomain returns the largest host domain (see Domains).
func (s Spec) MaxDomain(hosts int) int {
	m := 0
	for _, d := range s.Domains(hosts) {
		if d > m {
			m = d
		}
	}
	return m
}

// leafCounts distributes hosts across the leaves: sequential fill when
// HostsPerLeaf caps each leaf, otherwise a balanced contiguous split.
func (s Spec) leafCounts(hosts int) []int {
	counts := make([]int, s.Leaves)
	if s.HostsPerLeaf > 0 {
		rest := hosts
		for i := range counts {
			c := s.HostsPerLeaf
			if c > rest {
				c = rest
			}
			counts[i] = c
			rest -= c
		}
		return counts
	}
	base, extra := hosts/s.Leaves, hosts%s.Leaves
	for i := range counts {
		counts[i] = base
		if i < extra {
			counts[i]++
		}
	}
	return counts
}

// SwitchSpec is one switch in a Layout, in creation order.
type SwitchSpec struct {
	// Name appears in diagnostics.
	Name string
	// Rate is the switch's port line rate.
	Rate ethernet.Rate
}

// Trunk is one inter-switch link in a Layout. The builder creates the
// A-side port first, then the B side, matching the legacy
// ConnectSwitch order.
type Trunk struct {
	// A and B index Layout.Switches.
	A, B int
	// Rate is the trunk line rate.
	Rate ethernet.Rate
	// Flood marks the trunk as part of the flood spanning tree:
	// multicast/broadcast/unknown-unicast frames traverse only flooding
	// trunks, so fabrics with redundant paths (fat-trees) stay
	// loop-free. Non-flood trunks still carry table-routed unicast.
	Flood bool
}

// Layout is a concrete wiring plan: the expansion of a Spec for a
// given host count. Everything is ordered deterministically, so
// building the same Layout twice yields byte-identical simulations.
// Nothing writes to a Layout once Spec.Layout returns it, so any number
// of builders, on any goroutines, may share one.
type Layout struct {
	Spec  Spec
	Hosts int
	// Switches in creation order.
	Switches []SwitchSpec
	// HostSwitch maps each host (by index = protocol rank) to the
	// switch it attaches to.
	HostSwitch []int
	// Trunks in creation order (created after every host port, so host
	// ports keep the low port indices, as the legacy builder wired them).
	Trunks []Trunk
	// routes[s][h] is the index into Trunks of the trunk carrying
	// unicast traffic from switch s toward host h, or -1 when h is
	// local to s. Equal-cost fat-tree paths are spread deterministically
	// by (switch + host) so acknowledgment implosions load-balance
	// across spines.
	routes [][]int
}

// Layout expands the spec for hosts hosts. defRate substitutes for any
// unset link rate (the runner's default; zero falls back to 100 Mbps).
func (s Spec) Layout(hosts int, defRate ethernet.Rate) (*Layout, error) {
	if err := s.Validate(hosts); err != nil {
		return nil, err
	}
	if defRate == 0 {
		defRate = ethernet.Rate100Mbps
	}
	edge := s.EdgeRate
	if edge == 0 {
		edge = defRate
	}
	trunk := s.TrunkRate
	if trunk == 0 {
		trunk = edge
		if s.Oversub > 0 {
			trunk = edge / ethernet.Rate(s.Oversub)
			if trunk < 1 {
				return nil, fmt.Errorf("topo: oversubscription %d leaves no trunk bandwidth at edge rate %s",
					s.Oversub, FormatRate(edge))
			}
		}
	}

	l := &Layout{Spec: s, Hosts: hosts, HostSwitch: make([]int, hosts)}
	switch s.Kind {
	case Single:
		l.Switches = []SwitchSpec{{Name: "A", Rate: edge}}
	case TwoSwitch:
		l.Switches = []SwitchSpec{{Name: "A", Rate: edge}}
		if hosts > 16 {
			l.Switches = append(l.Switches, SwitchSpec{Name: "B", Rate: edge})
			for h := 16; h < hosts; h++ {
				l.HostSwitch[h] = 1
			}
			l.Trunks = []Trunk{{A: 0, B: 1, Rate: trunk, Flood: true}}
		}
	case Star:
		counts := s.leafCounts(hosts)
		for i := range counts {
			l.Switches = append(l.Switches, SwitchSpec{Name: fmt.Sprintf("L%d", i), Rate: edge})
		}
		core := len(l.Switches)
		l.Switches = append(l.Switches, SwitchSpec{Name: "C", Rate: edge})
		l.placeHosts(counts)
		for i := range counts {
			l.Trunks = append(l.Trunks, Trunk{A: i, B: core, Rate: trunk})
		}
	case FatTree:
		counts := s.leafCounts(hosts)
		for i := range counts {
			l.Switches = append(l.Switches, SwitchSpec{Name: fmt.Sprintf("L%d", i), Rate: edge})
		}
		for sp := 0; sp < s.Spines; sp++ {
			l.Switches = append(l.Switches, SwitchSpec{Name: fmt.Sprintf("S%d", sp), Rate: edge})
		}
		l.placeHosts(counts)
		for i := range counts {
			for sp := 0; sp < s.Spines; sp++ {
				l.Trunks = append(l.Trunks, Trunk{A: i, B: s.Leaves + sp, Rate: trunk})
			}
		}
	}
	l.markFloodTree()
	l.buildRoutes()
	return l, nil
}

// placeHosts assigns hosts contiguously to the leaves per counts.
func (l *Layout) placeHosts(counts []int) {
	h := 0
	for leaf, c := range counts {
		for i := 0; i < c; i++ {
			l.HostSwitch[h] = leaf
			h++
		}
	}
}

// markFloodTree marks a spanning tree over the trunks (breadth-first
// from switch 0, trunks considered in creation order) so flooding
// never loops. Fabrics that are already trees keep every trunk.
func (l *Layout) markFloodTree() {
	reached := make([]bool, len(l.Switches))
	reached[0] = true
	frontier := []int{0}
	for len(frontier) > 0 {
		var next []int
		for _, s := range frontier {
			for t := range l.Trunks {
				tr := &l.Trunks[t]
				var peer int
				switch {
				case tr.A == s:
					peer = tr.B
				case tr.B == s:
					peer = tr.A
				default:
					continue
				}
				if !reached[peer] {
					reached[peer] = true
					tr.Flood = true
					next = append(next, peer)
				}
			}
		}
		frontier = next
	}
}

// buildRoutes computes the per-switch unicast next hop for every host:
// shortest trunk paths, with equal-cost ties spread by (switch + host).
func (l *Layout) buildRoutes() {
	ns := len(l.Switches)
	adj := make([][]int, ns) // trunk indices incident to each switch
	for t, tr := range l.Trunks {
		adj[tr.A] = append(adj[tr.A], t)
		adj[tr.B] = append(adj[tr.B], t)
	}
	// dist[d][s]: hops from switch s to destination switch d.
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
	l.routes = make([][]int, ns)
	var candidates []int // equal-cost next hops of the pair at hand, reused
	for s := 0; s < ns; s++ {
		l.routes[s] = make([]int, l.Hosts)
		for h := 0; h < l.Hosts; h++ {
			d := l.HostSwitch[h]
			if d == s {
				l.routes[s][h] = -1
				continue
			}
			candidates = candidates[:0]
			for _, t := range adj[s] {
				peer := l.Trunks[t].A + l.Trunks[t].B - s
				if dist[d][peer] >= 0 && dist[d][peer] == dist[d][s]-1 {
					candidates = append(candidates, t)
				}
			}
			if len(candidates) == 0 {
				l.routes[s][h] = -1 // disconnected; cannot happen for built kinds
				continue
			}
			l.routes[s][h] = candidates[(s+h)%len(candidates)]
		}
	}
}

// Route returns the trunk index carrying unicast traffic from switch
// sw toward host, or -1 when the host attaches to sw directly.
func (l *Layout) Route(sw, host int) int { return l.routes[sw][host] }
