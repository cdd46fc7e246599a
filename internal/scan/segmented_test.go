package scan

import (
	"testing"
	"testing/quick"
)

func addInt(a, b int) int { return a + b }

// prefixSums is the plain sequential inclusive sum the segmented scan
// is checked against.
func prefixSums(xs []int) []int {
	out := make([]int, len(xs))
	acc := 0
	for i, x := range xs {
		acc += x
		out[i] = acc
	}
	return out
}

func TestSegmentedInclusive(t *testing.T) {
	xs := []int{1, 2, 3, 4, 5}
	flags := []bool{true, false, true, false, false}
	got := SegmentedInclusive(xs, flags, addInt, 0)
	want := []int{1, 3, 3, 7, 12}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SegmentedInclusive = %v, want %v", got, want)
		}
	}
}

func TestSegmentedMismatchedFlagsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for mismatched flags")
		}
	}()
	SegmentedInclusive([]int{1, 2}, []bool{true}, addInt, 0)
}

// Property: a segmented scan over a single segment equals the plain scan.
func TestPropertySingleSegmentEqualsPlain(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]int, len(raw))
		for i, x := range raw {
			xs[i] = int(x)
		}
		flags := make([]bool, len(xs))
		flags[0] = true
		seg := SegmentedInclusive(xs, flags, addInt, 0)
		plain := prefixSums(xs)
		for i := range xs {
			if seg[i] != plain[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: concatenating per-segment plain scans equals the segmented scan.
func TestPropertySegmentedIsPerSegmentScan(t *testing.T) {
	f := func(raw []int16, lens []uint8) bool {
		xs := make([]int, len(raw))
		for i, x := range raw {
			xs[i] = int(x)
		}
		// Cut xs into segments of fuzzed lengths, flagging each head.
		flags := make([]bool, len(xs))
		var lengths []int
		for pos, li := 0, 0; pos < len(xs); li++ {
			take := len(xs) - pos
			if li < len(lens) {
				take = int(lens[li])%take + 1
			}
			flags[pos] = true
			lengths = append(lengths, take)
			pos += take
		}
		seg := SegmentedInclusive(xs, flags, addInt, 0)
		pos := 0
		for _, l := range lengths {
			plain := prefixSums(xs[pos : pos+l])
			for i := range plain {
				if seg[pos+i] != plain[i] {
					return false
				}
			}
			pos += l
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
