package separator

import (
	"context"
	"errors"
	"testing"

	"sepdc/internal/chaos"
	"sepdc/internal/pointgen"
	"sepdc/internal/pts"
	"sepdc/internal/xrand"
)

// A closed Done channel stops the retry loop before its next trial, even
// when chaos has every trial fail and the full budget would otherwise run.
func TestFindGoodStopsOnDone(t *testing.T) {
	g := xrand.New(3)
	ps := pts.FromVecs(pointgen.MustGenerate(pointgen.UniformCube, 2000, 3, g))
	done := make(chan struct{})
	close(done)
	opts := &Options{Chaos: &chaos.Injector{SepFailTrials: chaos.AllTrials}, Done: done}
	res, err := FindGoodFlat(ps, g.Split(), opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Trials != 0 || res.Sep != nil {
		t.Fatalf("cancelled search ran %d trials and returned %v", res.Trials, res.Sep)
	}
	// An open channel changes nothing: same separator, same trial count.
	want, err := FindGoodFlat(ps, xrand.New(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FindGoodFlat(ps, xrand.New(4), &Options{Done: make(chan struct{})})
	if err != nil {
		t.Fatal(err)
	}
	if got.Trials != want.Trials || got.Stats != want.Stats || got.Sep.String() != want.Sep.String() {
		t.Fatalf("open Done changed the search: %+v vs %+v", got, want)
	}
}
