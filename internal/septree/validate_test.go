package septree

import (
	"errors"
	"fmt"

	"sepdc/internal/vec"
)

// Validate checks the structural invariants the correctness proof and
// the flat descent rely on, for the tests:
//
//  1. shape: every node is reached from the root 0 exactly once, so
//     sibling pairs neither overlap nor share; every internal node's
//     children left, left+1 are in range; every leaf slot belongs to
//     exactly one leaf;
//  2. leaf order: every leaf's ball ids are strictly ascending, and its
//     inlined records hold each ball's center and r² bit for bit;
//  3. containment and completeness: every leaf stores exactly the balls
//     its ancestors' separators admit (the interior side for left
//     subtrees, the exterior side for right, crossing balls on both), so
//     no ball is stored outside its region and none is missing from a
//     leaf its geometry reaches; every ball is stored somewhere.
func (f *Frozen) Validate() error {
	nn, sys := len(f.kind), f.sys
	if nn == 0 || len(f.child) != nn || len(f.punted) != nn || len(f.sep) != nn*f.nstride ||
		len(f.leafRecs) != len(f.leafBalls)*f.stride {
		return errors.New("septree: arrays disagree in length")
	}
	seen, slots, stored := make([]bool, nn), make([]bool, f.NumLeaves()), make([]bool, sys.Len())
	rel := make([]int8, sys.Len())
	leaves := 0
	// walk checks that the subtree at node i stores exactly the balls
	// idx, the ones its ancestors admit.
	var walk func(i int32, idx []int32) error
	walk = func(i int32, idx []int32) error {
		if seen[i] {
			return fmt.Errorf("septree: node %d reached twice", i)
		}
		seen[i] = true
		c := f.child[i]
		if f.kind[i] != kindLeaf {
			if c <= 0 || int(c)+1 >= nn {
				return fmt.Errorf("septree: node %d has children %d,%d out of range", i, c, c+1)
			}
			sep, _, _ := f.Node(i)
			l, r := partition(sys, sep, idx, rel)
			if err := walk(c, l); err != nil {
				return err
			}
			return walk(c+1, r)
		}
		if c < 0 || int(c) >= len(slots) || slots[c] {
			return fmt.Errorf("septree: leaf %d has slot %d out of range or shared", i, c)
		}
		slots[c] = true
		leaves++
		lo, hi := f.leafOff[c], f.leafOff[c+1]
		if lo > hi || int(hi) > len(f.leafBalls) || int(hi-lo) != len(idx) {
			return fmt.Errorf("septree: leaf %d stores balls [%d,%d), its region admits %d", i, lo, hi, len(idx))
		}
		for k, b := range f.leafBalls[lo:hi] {
			if k > 0 && f.leafBalls[int(lo)+k-1] >= b {
				return fmt.Errorf("septree: leaf %d ids not ascending at %d", i, k)
			}
			if b != idx[k] {
				return fmt.Errorf("septree: leaf %d stores ball %d where its region admits ball %d", i, b, idx[k])
			}
			rec, r := f.leafRecs[(int(lo)+k)*f.stride:][:f.stride], sys.Radii[b]
			if !vec.Equal(rec[:f.dim], sys.Centers[b]) || rec[f.dim] != r*r {
				return fmt.Errorf("septree: leaf %d record of ball %d disagrees with the system", i, b)
			}
			stored[b] = true
		}
		return nil
	}
	if err := walk(0, allBalls(sys.Len())); err != nil {
		return err
	}
	for i, ok := range seen {
		if !ok {
			return fmt.Errorf("septree: node %d unreachable from the root", i)
		}
	}
	if leaves != len(slots) {
		return fmt.Errorf("septree: %d leaves for %d leaf slots", leaves, len(slots))
	}
	for i, ok := range stored {
		if !ok {
			return fmt.Errorf("septree: ball %d not stored in any leaf", i)
		}
	}
	return nil
}
