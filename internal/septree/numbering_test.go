package septree

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"sepdc/internal/chaos"
	"sepdc/internal/nbrsys"
	"sepdc/internal/pointgen"
	"sepdc/internal/separator"
	"sepdc/internal/vm"
	"sepdc/internal/xrand"
)

// frozenHash is an FNV-1a digest of every array a query reads: node
// kinds, child ids, separator records, leaf offsets, leaf ball ids and
// the inlined leaf records (float bits). Node ids leak out through
// journal events and probed routes, so the layout is pinned, not just
// the answers.
func frozenHash(f *Frozen) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(len(f.kind)))
	h.Write(f.kind)
	for _, v := range [][]int32{f.child, f.leafOff, f.leafBalls} {
		put(uint64(len(v)))
		for _, x := range v {
			put(uint64(uint32(x)))
		}
	}
	for _, v := range [][]float64{f.sep, f.leafRecs} {
		put(uint64(len(v)))
		for _, x := range v {
			put(math.Float64bits(x))
		}
	}
	return h.Sum64()
}

// puntedHash is an FNV-1a digest of the per-node punted flags, one
// byte each.
func puntedHash(f *Frozen) uint64 {
	h := fnv.New64a()
	for _, p := range f.punted {
		if p {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	return h.Sum64()
}

// TestNodeNumberingPinned pins the layout, the punted flags and the
// build statistics of fixed-seed builds, two of them under
// separator-fault profiles so that punted (hyperplane) nodes occur: at
// every node, and at the nodes below 256 balls. The digests were
// recorded from the build-then-freeze implementation that preceded the
// direct flat build, except d2 and d3, re-recorded when the centerpoint
// tournament was sized to inputs under 128 points; any change to node
// ids, leaf slots, leaf order or record bits fails here.
func TestNodeNumberingPinned(t *testing.T) {
	cases := []struct {
		name   string
		n, d   int
		k      int
		seed   uint64
		chaos  string
		hash   uint64 // frozenHash of the tree
		punted uint64 // FNV-1a of the per-node punted flags, one byte each
		stats  BuildStats
	}{
		{name: "d2", n: 3000, d: 2, k: 4, seed: 101, hash: 0xa9d4863ccb6acdfe, punted: 0xd1dda5941f83a507,
			stats: BuildStats{Height: 10, Leaves: 152, TotalStored: 7697, SeparatorTrials: 151, CriticalTrials: 9,
				Cost: vm.Cost{Steps: 28, Work: 95180}}},
		{name: "d3", n: 3000, d: 3, k: 4, seed: 102, hash: 0xafe7604c84658d7d, punted: 0x4c2a450d7ec1e29f,
			stats: BuildStats{Height: 13, Leaves: 681, TotalStored: 36900, SeparatorTrials: 682, CriticalTrials: 12,
				Cost: vm.Cost{Steps: 37, Work: 298554}}},
		{name: "d5", n: 1200, d: 5, k: 3, seed: 103, hash: 0x98a2837f6fa4dda, punted: 0xe2a65b6102354897,
			stats: BuildStats{Height: 15, Leaves: 1158, TotalStored: 132183, SeparatorTrials: 1199, CriticalTrials: 14,
				Cost: vm.Cost{Steps: 43, Work: 763575}}},
		{name: "d3-sep-fail-all", n: 3000, d: 3, k: 4, seed: 104, chaos: "sep-fail=all",
			hash: 0x251e87db7be62ca4, punted: 0xda702e0241acbee8,
			stats: BuildStats{Height: 11, Leaves: 386, TotalStored: 20568, SeparatorTrials: 7648, CriticalTrials: 400,
				Punts: 385, Cost: vm.Cost{Steps: 421, Work: 2000454}}},
		{name: "d2-sep-fail-16", n: 3000, d: 2, k: 4, seed: 105, chaos: "sep-fail=16",
			hash: 0x35f1bca61cda2cf6, punted: 0x66a67ce77e921bfa,
			stats: BuildStats{Height: 9, Leaves: 132, TotalStored: 6550, SeparatorTrials: 2120, CriticalTrials: 133,
				Punts: 107, Cost: vm.Cost{Steps: 150, Work: 512757}}},
	}
	for _, c := range cases {
		g := xrand.New(c.seed)
		pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.Clustered, c.n, c.d, g.Split()))
		sys := nbrsys.KNeighborhood(pts, c.k)
		var opts *Options
		if c.chaos != "" {
			inj, err := chaos.Parse(c.chaos)
			if err != nil {
				t.Fatal(err)
			}
			opts = &Options{Sep: &separator.Options{Chaos: inj}}
		}
		f, err := Build(sys, g.Split(), opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if h := frozenHash(f); h != c.hash {
			t.Errorf("%s: layout digest %#x, want %#x", c.name, h, c.hash)
		}
		if h := puntedHash(f); h != c.punted {
			t.Errorf("%s: punted-flag digest %#x, want %#x", c.name, h, c.punted)
		}
		if f.Stats() != c.stats {
			t.Errorf("%s: stats %+v, want %+v", c.name, f.Stats(), c.stats)
		}
		if err := f.Validate(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// TestParallelBuildIdentical builds inputs large enough that many
// splits fork onto other workers, once on the sequential machine and
// once on four workers, and requires the same layout, punted flags and
// statistics, simulated cost included. Which worker built which
// subtree, and so the draft's build-order ids, must not show in the
// result.
func TestParallelBuildIdentical(t *testing.T) {
	cases := []struct {
		name  string
		n, d  int
		chaos string
	}{
		{name: "d2", n: 20000, d: 2},
		{name: "d3", n: 20000, d: 3},
		{name: "d2-sep-fail-16", n: 20000, d: 2, chaos: "sep-fail=16"},
	}
	par := vm.NewMachine(4)
	defer par.Close()
	for i, c := range cases {
		g := xrand.New(uint64(200 + i))
		pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.Clustered, c.n, c.d, g.Split()))
		sys := nbrsys.KNeighborhood(pts, 4)
		var sep *separator.Options
		if c.chaos != "" {
			inj, err := chaos.Parse(c.chaos)
			if err != nil {
				t.Fatal(err)
			}
			sep = &separator.Options{Chaos: inj}
		}
		seed := g.Uint64()
		var trees [2]*Frozen
		for j, m := range []*vm.Machine{vm.Sequential(), par} {
			f, err := Build(sys, xrand.New(seed), &Options{Sep: sep, Machine: m})
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			trees[j] = f
		}
		seq, got := trees[0], trees[1]
		if seq.NumNodes() < 3 {
			t.Fatalf("%s: %d balls built %d nodes, too few to fork", c.name, sys.Len(), seq.NumNodes())
		}
		if a, b := frozenHash(seq), frozenHash(got); a != b {
			t.Errorf("%s: layout digest %#x sequential, %#x parallel", c.name, a, b)
		}
		if a, b := puntedHash(seq), puntedHash(got); a != b {
			t.Errorf("%s: punted-flag digest %#x sequential, %#x parallel", c.name, a, b)
		}
		if seq.Stats() != got.Stats() {
			t.Errorf("%s: stats %+v sequential, %+v parallel", c.name, seq.Stats(), got.Stats())
		}
		if err := got.Validate(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}
