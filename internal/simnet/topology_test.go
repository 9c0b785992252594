package simnet

import (
	"reflect"
	"testing"
)

// Two-level machines (TwoLevel): nodes of ranksPerNode consecutive ranks
// priced by the intra profile, every other message by the inter profile.

func TestTopologyNodeMapping(t *testing.T) {
	topo := TwoLevel(4, NVLinkLike, Aries, 0)
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	nodes := []struct{ rank, node, leader int }{
		{0, 0, 0}, {3, 0, 0}, {4, 1, 4}, {6, 1, 4}, {11, 2, 8},
	}
	for _, c := range nodes {
		if got := topo.GroupOf(c.rank, 0); got != c.node {
			t.Fatalf("GroupOf(%d, 0) = %d, want node %d", c.rank, got, c.node)
		}
		if got := topo.Leader(c.rank, 0); got != c.leader {
			t.Fatalf("Leader(%d, 0) = %d, want %d", c.rank, got, c.leader)
		}
	}
	if got := topo.GroupOf(11, 1); got != 0 {
		t.Fatalf("GroupOf(11, 1) = %d, want 0 (one machine-wide group)", got)
	}
	if got := topo.Leader(11, 1); got != 0 {
		t.Fatalf("Leader(11, 1) = %d, want 0", got)
	}
	pairs := []struct {
		a, b    int
		level   int
		profile string
	}{
		{0, 3, 0, "nvlink"}, {1, 2, 0, "nvlink"}, {8, 11, 0, "nvlink"}, // same node
		{3, 4, 1, "aries"}, {1, 9, 1, "aries"}, {0, 11, 1, "aries"}, // different nodes
	}
	for _, c := range pairs {
		if got := topo.SharedLevel(c.a, c.b); got != c.level {
			t.Fatalf("SharedLevel(%d, %d) = %d, want %d", c.a, c.b, got, c.level)
		}
		if got := topo.ProfileFor(c.a, c.b).Name; got != c.profile {
			t.Fatalf("ProfileFor(%d, %d) = %s, want %s", c.a, c.b, got, c.profile)
		}
	}
}

func TestTopologyRankEnumeration(t *testing.T) {
	topo := TwoLevel(4, NVLinkLike, Aries, 0)
	// Divisible world.
	if got := topo.GroupRanks(5, 0, 8); !reflect.DeepEqual(got, []int{4, 5, 6, 7}) {
		t.Fatalf("GroupRanks(5, 0, 8) = %v", got)
	}
	if got := topo.LeadersAt(0, 8); !reflect.DeepEqual(got, []int{0, 4}) {
		t.Fatalf("LeadersAt(0, 8) = %v", got)
	}
	// Ragged world: the last node is smaller.
	if got := topo.GroupRanks(9, 0, 10); !reflect.DeepEqual(got, []int{8, 9}) {
		t.Fatalf("GroupRanks(9, 0, 10) = %v", got)
	}
	if got := topo.LeadersAt(0, 10); !reflect.DeepEqual(got, []int{0, 4, 8}) {
		t.Fatalf("LeadersAt(0, 10) = %v", got)
	}
	// Node counts are the number of node leaders.
	for _, c := range []struct{ p, nodes int }{{10, 3}, {8, 2}, {1, 1}} {
		if got := len(topo.LeadersAt(0, c.p)); got != c.nodes {
			t.Fatalf("%d ranks: %d nodes, want %d", c.p, got, c.nodes)
		}
	}
	// The outer level is one group spanning the world.
	if got := topo.GroupRanks(2, 1, 6); !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("GroupRanks(2, 1, 6) = %v", got)
	}
	if got := topo.LeadersAt(1, 10); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("LeadersAt(1, 10) = %v", got)
	}
}

func TestTopologyValidate(t *testing.T) {
	if err := TwoLevel(0, NVLinkLike, Aries, 0).Validate(); err == nil {
		t.Fatal("ranksPerNode=0 must fail validation")
	}
	if err := TwoLevel(2, Profile{}, Aries, 0).Validate(); err == nil {
		t.Fatal("unnamed intra profile must fail validation")
	}
	if err := TwoLevel(2, NVLinkLike, Profile{}, 0).Validate(); err == nil {
		t.Fatal("unnamed inter profile must fail validation")
	}
}

func TestNICFactor(t *testing.T) {
	uncapped := TwoLevel(4, NVLinkLike, Aries, 0)
	for _, active := range []int{1, 2, 8} {
		if got := uncapped.SerialFactor(0, active); got != 1 {
			t.Fatalf("nicSerial=0 active=%d: factor %g, want 1", active, got)
		}
	}
	capped := TwoLevel(4, NVLinkLike, Aries, 2)
	cases := []struct {
		active int
		want   float64
	}{{1, 1}, {2, 1}, {3, 1.5}, {4, 2}, {8, 4}}
	for _, tc := range cases {
		if got := capped.SerialFactor(0, tc.active); got != tc.want {
			t.Fatalf("nicSerial=2 active=%d: factor %g, want %g", tc.active, got, tc.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SerialFactor(0, 0) should panic")
		}
	}()
	capped.SerialFactor(0, 0)
}

func TestValidateRejectsNegativeNICSerial(t *testing.T) {
	if err := TwoLevel(2, NVLinkLike, Aries, -1).Validate(); err == nil {
		t.Fatal("negative nicSerial must fail validation")
	}
}
