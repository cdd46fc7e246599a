package topk

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewPanicsOnBadK(t *testing.T) {
	for _, k := range []int{0, -3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", k)
				}
			}()
			New(k)
		}()
	}
}

func TestInsertKeepsKBest(t *testing.T) {
	l := New(3)
	for i, d := range []float64{5, 1, 4, 2, 8, 3} {
		l.Insert(i, d)
	}
	items := l.Items()
	if len(items) != 3 {
		t.Fatalf("len = %d", len(items))
	}
	wantD := []float64{1, 2, 3}
	wantI := []int{1, 3, 5}
	for i := range items {
		if items[i].Dist2 != wantD[i] || items[i].Idx != wantI[i] {
			t.Fatalf("Items = %v", items)
		}
	}
}

func TestInsertTieBreaksByIndex(t *testing.T) {
	l := New(2)
	l.Insert(7, 1.0)
	l.Insert(3, 1.0)
	l.Insert(5, 1.0)
	items := l.Items()
	if items[0].Idx != 3 || items[1].Idx != 5 {
		t.Errorf("tie-break wrong: %v", items)
	}
}

func TestWorstAndRadius(t *testing.T) {
	l := New(2)
	if _, ok := l.WorstDist2(); ok {
		t.Error("empty list reported a worst distance")
	}
	if _, full := l.Radius2(); full {
		t.Error("empty list reported full radius")
	}
	l.Insert(0, 4)
	if d, full := l.Radius2(); full || d != 4 {
		t.Errorf("partial Radius2 = %v, %v", d, full)
	}
	l.Insert(1, 9)
	if d, ok := l.WorstDist2(); !ok || d != 9 {
		t.Errorf("WorstDist2 = %v, %v", d, ok)
	}
	if d, full := l.Radius2(); !full || d != 9 {
		t.Errorf("Radius2 = %v, %v", d, full)
	}
}

func TestCloneIndependent(t *testing.T) {
	l := New(2)
	l.Insert(0, 1)
	c := l.Clone()
	c.Insert(1, 0.5)
	if l.Len() != 1 {
		t.Error("Clone shares storage with original")
	}
	if !Equal(l, l.Clone()) {
		t.Error("Clone not equal to original")
	}
	if Equal(l, c) {
		t.Error("diverged clone still equal")
	}
}

// Property: inserting any stream leaves exactly the k canonical-smallest.
func TestPropertyMatchesSort(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	f := func(raw []uint16, kRaw uint8) bool {
		k := int(kRaw)%8 + 1
		l := New(k)
		var all []Neighbor
		for i, x := range raw {
			d2 := float64(x % 50) // force plenty of ties
			l.Insert(i, d2)
			all = append(all, Neighbor{Idx: i, Dist2: d2})
		}
		sort.Slice(all, func(i, j int) bool { return Less(all[i], all[j]) })
		want := all
		if len(want) > k {
			want = want[:k]
		}
		got := l.Items()
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		_ = r
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestArena(t *testing.T) {
	a := NewArena(5, 3)
	for i := 0; i < 5; i++ {
		l := a.List(i)
		if l.K != 3 || l.Len() != 0 {
			t.Fatalf("list %d: K=%d len=%d", i, l.K, l.Len())
		}
		for j := 0; j < 10; j++ {
			l.Insert(j, float64((j*7+i)%10))
		}
		if l.Len() != 3 || !l.Full() {
			t.Fatalf("list %d not full after inserts", i)
		}
	}
	// Arena lists must behave exactly like New(k) lists.
	ref := New(3)
	fresh := NewArena(1, 3).List(0)
	for j := 0; j < 20; j++ {
		d2 := float64((j * 13) % 7)
		ref.Insert(j, d2)
		fresh.Insert(j, d2)
	}
	if !Equal(ref, fresh) {
		t.Fatalf("arena list %v != reference list %v", fresh.Items(), ref.Items())
	}
	lists := a.Lists()
	if len(lists) != 5 || lists[2] != a.List(2) {
		t.Fatal("Lists() must return pointers to the arena lists")
	}
	a.Reset()
	if a.List(0).Len() != 0 {
		t.Fatal("Reset must empty the lists")
	}
}
