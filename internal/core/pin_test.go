package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"slices"
	"testing"

	"sepdc/internal/chaos"
	"sepdc/internal/march"
	"sepdc/internal/pointgen"
	"sepdc/internal/separator"
	"sepdc/internal/topk"
	"sepdc/internal/vm"
	"sepdc/internal/xrand"
)

// listsHash is FNV-1a over every list's length and (index, distance
// bits) entries, lists in input order.
func listsHash(lists []*topk.List) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, l := range lists {
		put(uint64(l.Len()))
		for _, nb := range l.Items() {
			put(uint64(nb.Idx))
			put(math.Float64bits(nb.Dist2))
		}
	}
	return h.Sum64()
}

// leavesHash is FNV-1a over the partition tree's leaves left to right,
// each as its size followed by its points' input indices in order.
func leavesHash(t *march.Tree) uint64 {
	h := fnv.New64a()
	walkLeaves(t, t.Root, func(lo, hi int) { fmt.Fprint(h, hi-lo, t.ID[lo:hi]) })
	return h.Sum64()
}

// walkLeaves calls f with the rows of every leaf of the subtree at r, left
// to right.
func walkLeaves(t *march.Tree, r march.Ref, f func(lo, hi int)) {
	if r.IsLeaf() {
		f(t.Leaf(r))
		return
	}
	walkLeaves(t, t.Nodes[r].Left, f)
	walkLeaves(t, t.Nodes[r].Right, f)
}

// profilesHash digests the march profiles as a multiset: marches on
// parallel strands append theirs in scheduling order.
func profilesHash(profiles [][]int) uint64 {
	ss := make([]string, len(profiles))
	for i, p := range profiles {
		ss[i] = fmt.Sprint(p)
	}
	slices.Sort(ss)
	h := fnv.New64a()
	fmt.Fprint(h, ss)
	return h.Sum64()
}

// TestBuildStatsPinned pins everything a build reports at fixed seeds:
// every Stats counter and the simulated cost, a multiset digest of the
// march profiles, a digest of the lists and one of the partition tree's
// leaf ids in order. Both algorithms, d ∈ {2, 3, 5}, uniform and
// clustered inputs, one and two workers, and the punt=all and
// march-abort=all injectors that send every correction down the punt
// paths. How the build lays out its working memory must not show in any
// of them.
func TestBuildStatsPinned(t *testing.T) {
	type pin struct {
		stats                   Stats // Profiles nil: pinned by the digest
		profiles, lists, leaves uint64
	}
	cases := []struct {
		name    string
		algo    string // "sphere" or "hyperplane"
		dist    pointgen.Dist
		n, d, k int
		workers int
		chaos   string
		want    pin
	}{
		{name: "sphere-uniform-d2", algo: "sphere", dist: pointgen.UniformCube, n: 4000, d: 2, k: 4, workers: 1,
			want: pin{stats: Stats{Nodes: 477, BaseCases: 478, SeparatorTrials: 526, SeparatorPunts: 0, FastCorrections: 738, ThresholdPunts: 99, MarchAborts: 0, QueryCorrections: 198, Duplications: 5863, CandidatePairs: 32552, SeptreeBuilds: 0, SeptreeStored: 0, MaxMarchActive: 271, MaxDepth: 11, Cost: vm.Cost{Steps: 197, Work: 391640}},
				profiles: 0xc9c6b66c13289c9a, lists: 0x7a57e62795a81b4b, leaves: 0x4964c8985a4c938d}},
		{name: "sphere-clustered-d2-w2", algo: "sphere", dist: pointgen.Clustered, n: 4000, d: 2, k: 4, workers: 2,
			want: pin{stats: Stats{Nodes: 475, BaseCases: 476, SeparatorTrials: 511, SeparatorPunts: 0, FastCorrections: 694, ThresholdPunts: 117, MarchAborts: 0, QueryCorrections: 234, Duplications: 5706, CandidatePairs: 32623, SeptreeBuilds: 0, SeptreeStored: 0, MaxMarchActive: 191, MaxDepth: 11, Cost: vm.Cost{Steps: 200, Work: 386558}},
				profiles: 0x12f1b8340414c9a5, lists: 0x22b438bdbcc3b486, leaves: 0x8731f8c74968669a}},
		{name: "sphere-uniform-d3-w2", algo: "sphere", dist: pointgen.UniformCube, n: 4000, d: 3, k: 4, workers: 2,
			want: pin{stats: Stats{Nodes: 499, BaseCases: 500, SeparatorTrials: 533, SeparatorPunts: 0, FastCorrections: 428, ThresholdPunts: 283, MarchAborts: 0, QueryCorrections: 566, Duplications: 23519, CandidatePairs: 91132, SeptreeBuilds: 15, SeptreeStored: 789, MaxMarchActive: 1575, MaxDepth: 12, Cost: vm.Cost{Steps: 199, Work: 736415}},
				profiles: 0x3a91b19bd6615d7a, lists: 0xc2156ed17505efe9, leaves: 0xf67f1a213b5ac5a9}},
		{name: "sphere-clustered-d3", algo: "sphere", dist: pointgen.Clustered, n: 4000, d: 3, k: 8, workers: 1,
			want: pin{stats: Stats{Nodes: 328, BaseCases: 329, SeparatorTrials: 412, SeparatorPunts: 0, FastCorrections: 191, ThresholdPunts: 232, MarchAborts: 0, QueryCorrections: 464, Duplications: 20497, CandidatePairs: 145079, SeptreeBuilds: 48, SeptreeStored: 3915, MaxMarchActive: 1621, MaxDepth: 11, Cost: vm.Cost{Steps: 196, Work: 916411}},
				profiles: 0x88afc1d55c5e6c0f, lists: 0x6fbe5546d6708dcb, leaves: 0xe095f72b110d9908}},
		{name: "sphere-uniform-d5", algo: "sphere", dist: pointgen.UniformCube, n: 1500, d: 5, k: 3, workers: 1,
			want: pin{stats: Stats{Nodes: 207, BaseCases: 208, SeparatorTrials: 379, SeparatorPunts: 0, FastCorrections: 44, ThresholdPunts: 185, MarchAborts: 0, QueryCorrections: 370, Duplications: 12652, CandidatePairs: 54751, SeptreeBuilds: 45, SeptreeStored: 19494, MaxMarchActive: 1741, MaxDepth: 10, Cost: vm.Cost{Steps: 220, Work: 423137}},
				profiles: 0x372580e77c200e40, lists: 0xdebb6b5790bc1b8c, leaves: 0xa3f20e489e7553be}},
		{name: "sphere-clustered-d5-w2", algo: "sphere", dist: pointgen.Clustered, n: 1500, d: 5, k: 3, workers: 2,
			want: pin{stats: Stats{Nodes: 206, BaseCases: 207, SeparatorTrials: 315, SeparatorPunts: 0, FastCorrections: 68, ThresholdPunts: 172, MarchAborts: 0, QueryCorrections: 344, Duplications: 8418, CandidatePairs: 58120, SeptreeBuilds: 36, SeptreeStored: 12780, MaxMarchActive: 1223, MaxDepth: 10, Cost: vm.Cost{Steps: 207, Work: 352632}},
				profiles: 0x3c5f46428c53f45c, lists: 0x130791f20860cd2d, leaves: 0x25d65e0ed035076b}},
		{name: "sphere-uniform-d3-punt-all", algo: "sphere", dist: pointgen.UniformCube, n: 3000, d: 3, k: 4, workers: 1, chaos: "punt=all",
			want: pin{stats: Stats{Nodes: 366, BaseCases: 367, SeparatorTrials: 587, SeparatorPunts: 0, FastCorrections: 0, ThresholdPunts: 366, MarchAborts: 0, QueryCorrections: 729, Duplications: 0, CandidatePairs: 112808, SeptreeBuilds: 93, SeptreeStored: 10380, MaxMarchActive: 0, MaxDepth: 10, Cost: vm.Cost{Steps: 306, Work: 455546}},
				profiles: 0x9612b07b5ecb5a5, lists: 0xe797318e64a6cc5, leaves: 0x6f994448f0a83435}},
		{name: "sphere-clustered-d2-punt-all-w2", algo: "sphere", dist: pointgen.Clustered, n: 3000, d: 2, k: 4, workers: 2, chaos: "punt=all",
			want: pin{stats: Stats{Nodes: 358, BaseCases: 359, SeparatorTrials: 403, SeparatorPunts: 0, FastCorrections: 0, ThresholdPunts: 358, MarchAborts: 0, QueryCorrections: 698, Duplications: 0, CandidatePairs: 91630, SeptreeBuilds: 64, SeptreeStored: 1627, MaxMarchActive: 0, MaxDepth: 11, Cost: vm.Cost{Steps: 145, Work: 332932}},
				profiles: 0x9612b07b5ecb5a5, lists: 0xbc7fc299b6cb8064, leaves: 0x12c62915c5cb5dc8}},
		{name: "sphere-uniform-d2-march-abort-all", algo: "sphere", dist: pointgen.UniformCube, n: 3000, d: 2, k: 4, workers: 1, chaos: "march-abort=all",
			want: pin{stats: Stats{Nodes: 363, BaseCases: 364, SeparatorTrials: 405, SeparatorPunts: 0, FastCorrections: 0, ThresholdPunts: 84, MarchAborts: 558, QueryCorrections: 718, Duplications: 0, CandidatePairs: 100968, SeptreeBuilds: 58, SeptreeStored: 1701, MaxMarchActive: 0, MaxDepth: 10, Cost: vm.Cost{Steps: 149, Work: 355878}},
				profiles: 0x9612b07b5ecb5a5, lists: 0xe52d0972c4869e04, leaves: 0x2c7b8b1ae3209bd4}},
		{name: "sphere-clustered-d3-march-abort-all-w2", algo: "sphere", dist: pointgen.Clustered, n: 3000, d: 3, k: 4, workers: 2, chaos: "march-abort=all",
			want: pin{stats: Stats{Nodes: 366, BaseCases: 367, SeparatorTrials: 546, SeparatorPunts: 0, FastCorrections: 0, ThresholdPunts: 203, MarchAborts: 326, QueryCorrections: 727, Duplications: 0, CandidatePairs: 113229, SeptreeBuilds: 90, SeptreeStored: 7900, MaxMarchActive: 0, MaxDepth: 10, Cost: vm.Cost{Steps: 266, Work: 439009}},
				profiles: 0x9612b07b5ecb5a5, lists: 0xf7867c5b7101511a, leaves: 0xbc975b4148813306}},
		{name: "hyperplane-uniform-d2", algo: "hyperplane", dist: pointgen.UniformCube, n: 4000, d: 2, k: 4, workers: 1,
			want: pin{stats: Stats{Nodes: 511, BaseCases: 512, SeparatorTrials: 515, SeparatorPunts: 0, FastCorrections: 0, ThresholdPunts: 0, MarchAborts: 0, QueryCorrections: 1021, Duplications: 0, CandidatePairs: 124015, SeptreeBuilds: 62, SeptreeStored: 1444, MaxMarchActive: 0, MaxDepth: 9, Cost: vm.Cost{Steps: 121, Work: 448542}},
				profiles: 0x9612b07b5ecb5a5, lists: 0x6bb2786a25142429, leaves: 0x68a599bd55dac01d}},
		{name: "hyperplane-clustered-d3-w2", algo: "hyperplane", dist: pointgen.Clustered, n: 4000, d: 3, k: 4, workers: 2,
			want: pin{stats: Stats{Nodes: 511, BaseCases: 512, SeparatorTrials: 646, SeparatorPunts: 0, FastCorrections: 0, ThresholdPunts: 0, MarchAborts: 0, QueryCorrections: 1020, Duplications: 0, CandidatePairs: 166413, SeptreeBuilds: 103, SeptreeStored: 7710, MaxMarchActive: 0, MaxDepth: 9, Cost: vm.Cost{Steps: 244, Work: 594932}},
				profiles: 0x9612b07b5ecb5a5, lists: 0x476dbadb431f472, leaves: 0x1e297877126cb8d5}},
		{name: "hyperplane-uniform-d5-w2", algo: "hyperplane", dist: pointgen.UniformCube, n: 1500, d: 5, k: 3, workers: 2,
			want: pin{stats: Stats{Nodes: 219, BaseCases: 220, SeparatorTrials: 289, SeparatorPunts: 0, FastCorrections: 0, ThresholdPunts: 0, MarchAborts: 0, QueryCorrections: 438, Duplications: 0, CandidatePairs: 70808, SeptreeBuilds: 50, SeptreeStored: 10278, MaxMarchActive: 0, MaxDepth: 8, Cost: vm.Cost{Steps: 166, Work: 257771}},
				profiles: 0x9612b07b5ecb5a5, lists: 0x21e5a6833a866350, leaves: 0xddd47ae21b82a16b}},
		{name: "hyperplane-clustered-d5", algo: "hyperplane", dist: pointgen.Clustered, n: 1500, d: 5, k: 3, workers: 1,
			want: pin{stats: Stats{Nodes: 219, BaseCases: 220, SeparatorTrials: 273, SeparatorPunts: 0, FastCorrections: 0, ThresholdPunts: 0, MarchAborts: 0, QueryCorrections: 438, Duplications: 0, CandidatePairs: 62968, SeptreeBuilds: 52, SeptreeStored: 8750, MaxMarchActive: 0, MaxDepth: 8, Cost: vm.Cost{Steps: 165, Work: 229637}},
				profiles: 0x9612b07b5ecb5a5, lists: 0x3f7258faec0230bb, leaves: 0x9d77e427660a2637}},
	}
	for i, c := range cases {
		g := xrand.New(uint64(3100 + i))
		pv := pointgen.Dedup(pointgen.MustGenerate(c.dist, c.n, c.d, g.Split()))
		m := vm.NewMachine(c.workers)
		opts := &Options{K: c.k, Machine: m, CollectProfiles: true}
		if c.chaos != "" {
			inj, err := chaos.Parse(c.chaos)
			if err != nil {
				t.Fatal(err)
			}
			opts.Chaos, opts.Sep = inj, &separator.Options{Chaos: inj}
		}
		build := SphereDNC
		if c.algo == "hyperplane" {
			build = HyperplaneDNC
		}
		res, err := build(pv, g.Split(), opts)
		m.Close()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := pin{stats: res.Stats, profiles: profilesHash(res.Stats.Profiles),
			lists: listsHash(res.Lists), leaves: leavesHash(res.Tree)}
		got.stats.Profiles = nil
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s:\n got %#v\nwant %#v", c.name, got, c.want)
		}
	}
}
