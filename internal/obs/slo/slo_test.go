package slo

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"sepdc/internal/obs"
)

// fakeClock steps a synthetic timeline.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func TestEvaluatorValidation(t *testing.T) {
	if _, err := New(Objective{Name: "x"}, nil); err == nil {
		t.Fatal("objective without source accepted")
	}
	if _, err := New(Objective{Source: func() (int64, int64) { return 0, 0 }}, nil); err == nil {
		t.Fatal("objective without name accepted")
	}
}

func TestBurnRateTripsOnBothWindows(t *testing.T) {
	var total, bad atomic.Int64
	var trips []Status
	ev, err := New(Objective{
		Name:   "latency",
		Source: func() (int64, int64) { return total.Load(), bad.Load() },
	}, func(s Status) { trips = append(trips, s) })
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	ev.SetClock(clk.now)

	// Healthy hour: 1000 events/min, 0.1% bad — burn 0.1, quiet.
	for i := 0; i < 60; i++ {
		total.Add(1000)
		bad.Add(1)
		clk.advance(time.Minute)
		if s := ev.Evaluate(); s.Tripped {
			t.Fatalf("tripped during healthy traffic: %+v", s)
		}
	}
	if len(trips) != 0 {
		t.Fatalf("trip hook fired during healthy traffic: %+v", trips)
	}

	// Outage: 30% of events bad. Fast window saturates within minutes
	// (burn 30), but the slow window needs enough bad volume to exceed
	// burn 6 over the trailing hour.
	fired := false
	for i := 0; i < 60 && !fired; i++ {
		total.Add(1000)
		bad.Add(300)
		clk.advance(time.Minute)
		st := ev.Evaluate()
		fired = st.Tripped
		if fired && st.FastBurn <= FastBurn {
			t.Fatalf("tripped with fast burn %v <= threshold", st.FastBurn)
		}
	}
	if !fired {
		t.Fatal("outage never tripped the objective")
	}
	if len(trips) != 1 {
		t.Fatalf("trip hook fired %d times, want exactly 1 (transition only)", len(trips))
	}
	// Still firing on the next tick: hook must NOT re-fire.
	total.Add(1000)
	bad.Add(300)
	clk.advance(time.Minute)
	ev.Evaluate()
	if len(trips) != 1 {
		t.Fatalf("trip hook re-fired while already tripped: %d", len(trips))
	}

	// Recovery: clean traffic long enough to drain both windows; the
	// objective must quiet down, and a later outage trips it again.
	var st Status
	for i := 0; i < 70; i++ {
		total.Add(1000)
		clk.advance(time.Minute)
		st = ev.Evaluate()
	}
	if st.Tripped {
		t.Fatalf("objective still firing after recovery: %+v", st)
	}
	for i := 0; i < 60; i++ {
		total.Add(1000)
		bad.Add(500)
		clk.advance(time.Minute)
		ev.Evaluate()
	}
	if len(trips) != 2 {
		t.Fatalf("second outage: trip hook count %d, want 2", len(trips))
	}
}

func TestFastWindowAloneDoesNotTrip(t *testing.T) {
	var total, bad atomic.Int64
	ev, err := New(Objective{
		Name:   "latency",
		Source: func() (int64, int64) { return total.Load(), bad.Load() },
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	ev.SetClock(clk.now)

	// A long healthy baseline, then a two-minute 50%-bad blip: the
	// 5-minute window sees 20% bad (burn 20, spiking), but the hour
	// window dilutes it to ~1.6% of budget-relative burn — no page.
	for i := 0; i < 60; i++ {
		total.Add(10000)
		clk.advance(time.Minute)
		ev.Evaluate()
	}
	var st Status
	for i := 0; i < 2; i++ {
		total.Add(10000)
		bad.Add(5000)
		clk.advance(time.Minute)
		st = ev.Evaluate()
	}
	if st.FastBurn <= FastBurn {
		t.Fatalf("fast burn %v did not spike", st.FastBurn)
	}
	if st.SlowBurn > SlowBurn {
		t.Fatalf("slow burn %v exceeded threshold after a two-minute blip", st.SlowBurn)
	}
	if st.Tripped {
		t.Fatal("single-window spike tripped the objective")
	}
}

func TestBurnGaugesPublished(t *testing.T) {
	var total, bad atomic.Int64
	total.Store(1000)
	bad.Store(100)
	ev, err := New(Objective{
		Name:   "gauge-probe",
		Source: func() (int64, int64) { return total.Load(), bad.Load() },
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	ev.SetClock(clk.now)
	ev.Evaluate()
	clk.advance(time.Minute)
	total.Add(1000)
	bad.Add(500)
	ev.Evaluate()

	// The gauges land in the obs registry under the objective label.
	found := map[string]float64{}
	for _, g := range obs.Gauges() {
		if g.LabelValue == "gauge-probe" {
			found[g.Name] = g.Value
		}
	}
	for _, name := range []string{"sepdc_slo_burn_fast", "sepdc_slo_burn_slow", "sepdc_slo_tripped"} {
		if _, ok := found[name]; !ok {
			t.Fatalf("gauge %s not published (have %v)", name, found)
		}
	}
	if found["sepdc_slo_burn_fast"] != 50 { // 50% bad / 1% budget
		t.Fatalf("fast burn gauge %v, want 50", found["sepdc_slo_burn_fast"])
	}
}

func TestHistSource(t *testing.T) {
	h := obs.Hist{
		Count: 100,
		Buckets: []obs.Bucket{
			{Le: 1024, Count: 90},
			{Le: 2048, Count: 7},
			{Le: math.MaxInt64, Count: 3},
		},
	}
	src := HistSource(func() obs.Hist { return h }, 1024)
	total, bad := src()
	if total != 100 || bad != 10 {
		t.Fatalf("threshold 1024: total=%d bad=%d, want 100/10", total, bad)
	}
	// Thresholds round down to a bucket bound: 1500 behaves like 1024.
	if _, bad = HistSource(func() obs.Hist { return h }, 1500)(); bad != 10 {
		t.Fatalf("threshold 1500: bad=%d, want 10", bad)
	}
	if _, bad = HistSource(func() obs.Hist { return h }, 2048)(); bad != 3 {
		t.Fatalf("threshold 2048: bad=%d, want 3", bad)
	}
}

func TestEvaluatorNilSafe(t *testing.T) {
	var ev *Evaluator
	if st := ev.Evaluate(); st != (Status{}) {
		t.Fatalf("nil evaluator returned status %+v", st)
	}
}
