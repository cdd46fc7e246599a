package march

import (
	"slices"
	"testing"

	"sepdc/internal/geom"
	"sepdc/internal/pointgen"
	"sepdc/internal/vec"
	"sepdc/internal/xrand"
)

// reachableLeavesWalk computes the reachable leaves of the tree for
// ball b by a recursive walk: a child is entered when its parent's
// separator admits the ball on that side.
func reachableLeavesWalk(t *Tree, b Ball) []Ref {
	var out []Ref
	var walk func(r Ref)
	walk = func(r Ref) {
		if r.IsLeaf() {
			out = append(out, r)
			return
		}
		n := &t.Nodes[r]
		rel := n.Sep.ClassifyBall(b.Center, b.Radius)
		if rel != geom.Exterior {
			walk(n.Left)
		}
		if rel != geom.Interior {
			walk(n.Right)
		}
	}
	walk(t.Root)
	return out
}

// The recursive walk and the literal scan formulation of Lemma 6.3 must
// produce identical leaf sets on random trees and balls.
func TestScanReachabilityMatchesRecursive(t *testing.T) {
	g := xrand.New(31)
	tree := fixture(pointgen.UniformCube, 800, 2, 8, g)
	for trial := 0; trial < 60; trial++ {
		r := g.Float64()
		b := NewBall(trial, tree.Rows.At(g.IntN(tree.Rows.N())), r*r)
		rec := reachableLeavesWalk(tree, b)
		scn := ReachableLeavesScan(tree, b)
		if !slices.Equal(rec, scn) {
			t.Fatalf("trial %d: recursive %v, scan %v", trial, rec, scn)
		}
	}
}

func TestScanReachabilityTinyTrees(t *testing.T) {
	if got := ReachableLeavesScan(nil, Ball{}); got != nil {
		t.Error("nil tree returned leaves")
	}
	leaf := &Tree{Ends: []int32{1}, Root: LeafRef(0)}
	got := ReachableLeavesScan(leaf, NewBall(0, vec.Of(0, 0), 1))
	if len(got) != 1 || got[0] != leaf.Root {
		t.Errorf("single leaf: %v", got)
	}
	// A one-split tree with a ball strictly inside: only the left leaf.
	root := &Tree{
		Nodes: []Node{1: {Sep: geom.Sphere{Center: vec.Of(0, 0), Radius: 10}, Left: LeafRef(0), Right: LeafRef(1)}},
		Ends:  []int32{1, 2},
		Root:  1,
	}
	got = ReachableLeavesScan(root, NewBall(0, vec.Of(0, 0), 1))
	if len(got) != 1 || got[0] != LeafRef(0) {
		t.Errorf("interior ball should reach only the left leaf: %v", got)
	}
	// A crossing ball reaches both.
	got = ReachableLeavesScan(root, NewBall(0, vec.Of(0, 0), 100*100))
	if len(got) != 2 {
		t.Errorf("crossing ball should reach both leaves: %v", got)
	}
}
