package march

import (
	"testing"

	"sepdc/internal/geom"
	"sepdc/internal/pointgen"
	"sepdc/internal/vec"
	"sepdc/internal/xrand"
)

// reachableLeavesWalk computes the reachable leaves of the tree for
// ball b by a recursive walk: a child is entered when its parent's
// separator admits the ball on that side.
func reachableLeavesWalk(root *PNode, b Ball) []*PNode {
	var out []*PNode
	var walk func(n *PNode)
	walk = func(n *PNode) {
		if n.IsLeaf() {
			out = append(out, n)
			return
		}
		rel := n.Sep.ClassifyBall(b.Center, b.Radius)
		if rel != geom.Exterior {
			walk(n.Left)
		}
		if rel != geom.Interior {
			walk(n.Right)
		}
	}
	walk(root)
	return out
}

// The recursive walk and the literal scan formulation of Lemma 6.3 must
// produce identical leaf sets on random trees and balls.
func TestScanReachabilityMatchesRecursive(t *testing.T) {
	g := xrand.New(31)
	pts := pointgen.MustGenerate(pointgen.UniformCube, 800, 2, g)
	tree := buildPTree(pts, allIdx(len(pts)), g.Split(), 8)
	for trial := 0; trial < 60; trial++ {
		r := g.Float64()
		b := NewBall(trial, pts[g.IntN(len(pts))], r*r)
		rec := reachableLeavesWalk(tree, b)
		scn := ReachableLeavesScan(tree, b)
		if len(rec) != len(scn) {
			t.Fatalf("trial %d: recursive %d leaves, scan %d", trial, len(rec), len(scn))
		}
		seen := map[*PNode]bool{}
		for _, n := range rec {
			seen[n] = true
		}
		for _, n := range scn {
			if !seen[n] {
				t.Fatalf("trial %d: scan found a leaf the walk missed", trial)
			}
		}
	}
}

func TestScanReachabilityTinyTrees(t *testing.T) {
	if got := ReachableLeavesScan(nil, Ball{}); got != nil {
		t.Error("nil tree returned leaves")
	}
	leaf := &PNode{Pts: []int{0}}
	got := ReachableLeavesScan(leaf, NewBall(0, vec.Of(0, 0), 1))
	if len(got) != 1 || got[0] != leaf {
		t.Errorf("single leaf: %v", got)
	}
	// A one-split tree with a ball strictly inside: only the left leaf.
	root := &PNode{
		Sep:   geom.Sphere{Center: vec.Of(0, 0), Radius: 10},
		Left:  &PNode{Pts: []int{0}},
		Right: &PNode{Pts: []int{1}},
	}
	got = ReachableLeavesScan(root, NewBall(0, vec.Of(0, 0), 1))
	if len(got) != 1 || got[0] != root.Left {
		t.Errorf("interior ball should reach only the left leaf: %v", got)
	}
	// A crossing ball reaches both.
	got = ReachableLeavesScan(root, NewBall(0, vec.Of(0, 0), 100*100))
	if len(got) != 2 {
		t.Errorf("crossing ball should reach both leaves: %v", got)
	}
}
