package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
)

func mkEvents(batch int64, lo, n int) []JournalEvent {
	evs := make([]JournalEvent, n)
	for i := range evs {
		evs[i] = JournalEvent{Batch: batch, Query: int32(lo + i), Nodes: int32(i + 1)}
	}
	return evs
}

func TestJournalPublishSnapshot(t *testing.T) {
	j := NewJournal(JournalConfig{PerStrand: 8}, 2)
	j.Strand(0).Publish(mkEvents(1, 0, 3))
	j.Strand(1).Publish(mkEvents(1, 3, 2))

	d := j.Snapshot()
	if d.Strands != 2 || d.Capacity != 8 {
		t.Fatalf("accounting: %+v", d)
	}
	if d.Published != 5 || d.Dropped != 0 || len(d.Events) != 5 {
		t.Fatalf("got published=%d dropped=%d events=%d", d.Published, d.Dropped, len(d.Events))
	}
	// Global order is (Batch, Query).
	for i, e := range d.Events {
		if e.Query != int32(i) {
			t.Fatalf("event %d: query=%d, want %d", i, e.Query, i)
		}
	}
	// Strand and Seq were stamped by Publish.
	if d.Events[0].Strand != 0 || d.Events[3].Strand != 1 {
		t.Fatalf("strand stamps wrong: %+v", d.Events)
	}
	if d.Events[0].Seq != 1 || d.Events[2].Seq != 3 || d.Events[3].Seq != 1 {
		t.Fatalf("seq stamps wrong: %+v", d.Events)
	}
	// Snapshot does not consume.
	if d2 := j.Snapshot(); len(d2.Events) != 5 {
		t.Fatalf("second snapshot saw %d events, want 5", len(d2.Events))
	}
}

func TestJournalRingOverwrite(t *testing.T) {
	j := NewJournal(JournalConfig{PerStrand: 4}, 1)
	j.Strand(0).Publish(mkEvents(1, 0, 10))

	d := j.Snapshot()
	if len(d.Events) != 4 {
		t.Fatalf("ring of 4 retained %d events", len(d.Events))
	}
	// The newest 4 survive.
	for i, e := range d.Events {
		if e.Query != int32(6+i) {
			t.Fatalf("event %d: query=%d, want %d", i, e.Query, 6+i)
		}
	}
	if d.Published != 10 {
		t.Fatalf("published=%d, want 10", d.Published)
	}
	// Snapshot never charges drops.
	if d.Dropped != 0 {
		t.Fatalf("snapshot charged dropped=%d", d.Dropped)
	}
}

func TestJournalDrainConsumesAndCountsDrops(t *testing.T) {
	j := NewJournal(JournalConfig{PerStrand: 4}, 1)
	s := j.Strand(0)

	s.Publish(mkEvents(1, 0, 3))
	d := j.Drain()
	if len(d.Events) != 3 || d.Dropped != 0 {
		t.Fatalf("first drain: events=%d dropped=%d", len(d.Events), d.Dropped)
	}

	// Nothing new: empty drain.
	if d = j.Drain(); len(d.Events) != 0 {
		t.Fatalf("idle drain returned %d events", len(d.Events))
	}

	// Publish 6 more into the ring of 4: positions 3,4 are overwritten
	// before this drain sees them — exactly 2 dropped.
	s.Publish(mkEvents(2, 0, 6))
	d = j.Drain()
	if len(d.Events) != 4 {
		t.Fatalf("drain after overflow: %d events, want 4", len(d.Events))
	}
	if d.Dropped != 2 {
		t.Fatalf("dropped=%d, want 2", d.Dropped)
	}
	// Drop accounting is cumulative and stable.
	if d = j.Drain(); d.Dropped != 2 || len(d.Events) != 0 {
		t.Fatalf("after: dropped=%d events=%d", d.Dropped, len(d.Events))
	}
}

func TestJournalSnapshotDoesNotDisturbDrain(t *testing.T) {
	j := NewJournal(JournalConfig{PerStrand: 8}, 1)
	j.Strand(0).Publish(mkEvents(1, 0, 5))
	if d := j.Snapshot(); len(d.Events) != 5 {
		t.Fatalf("snapshot: %d", len(d.Events))
	}
	// The drain still sees everything the snapshot saw.
	if d := j.Drain(); len(d.Events) != 5 || d.Dropped != 0 {
		t.Fatalf("drain after snapshot: events=%d dropped=%d", len(d.Events), d.Dropped)
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	if s := j.Strand(2); s != nil {
		t.Fatalf("nil journal handed out strand %v", s)
	}
	var s *JournalStrand
	s.Publish(mkEvents(1, 0, 2)) // must not panic
	if d := j.Snapshot(); len(d.Events) != 0 || d.Published != 0 {
		t.Fatalf("nil snapshot: %+v", d)
	}
	if d := j.Drain(); len(d.Events) != 0 {
		t.Fatalf("nil drain: %+v", d)
	}
}

func TestJournalEnsureGrows(t *testing.T) {
	j := NewJournal(JournalConfig{}, 1)
	j.Strand(5).Publish(mkEvents(1, 0, 1))
	d := j.Snapshot()
	if d.Strands != 6 {
		t.Fatalf("strands=%d, want 6", d.Strands)
	}
	if d.Events[0].Strand != 5 {
		t.Fatalf("strand stamp %d, want 5", d.Events[0].Strand)
	}
	if j.Config().perStrand() != defaultJournalPerStrand {
		t.Fatalf("default capacity not applied")
	}
}

func TestJournalPublishZeroAlloc(t *testing.T) {
	j := NewJournal(JournalConfig{PerStrand: 64}, 1)
	s := j.Strand(0)
	buf := mkEvents(1, 0, 16)
	allocs := testing.AllocsPerRun(100, func() { s.Publish(buf) })
	if allocs != 0 {
		t.Fatalf("Publish allocated %.1f allocs/op, want 0", allocs)
	}
}

func TestJournalConcurrentPublishDrain(t *testing.T) {
	j := NewJournal(JournalConfig{PerStrand: 32}, 4)
	var wg sync.WaitGroup
	for st := 0; st < 4; st++ {
		wg.Add(1)
		go func(st int) {
			defer wg.Done()
			s := j.Strand(st)
			buf := make([]JournalEvent, 8)
			for r := 0; r < 200; r++ {
				for i := range buf {
					buf[i] = JournalEvent{Batch: int64(r + 1), Query: int32(st*8 + i)}
				}
				s.Publish(buf)
			}
		}(st)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			j.Snapshot()
			j.Drain()
		}
	}()
	wg.Wait()
	<-done
	// Everything published is accounted for: drained + retained + dropped.
	d := j.Drain()
	if d.Published != 4*200*8 {
		t.Fatalf("published=%d, want %d", d.Published, 4*200*8)
	}
}

func TestJournalDrainWriteJSONL(t *testing.T) {
	j := NewJournal(JournalConfig{PerStrand: 8}, 1)
	j.Strand(0).Publish([]JournalEvent{
		{Batch: 1, Query: 0, Leaf: 7, Nodes: 3, Scanned: 12, Reported: 2,
			Sampled: true, LatencyNs: 900, DescentNs: 400, ScanNs: 500},
		{Batch: 1, Query: 1, Leaf: -1},
	})
	var buf bytes.Buffer
	if err := j.Snapshot().WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d not JSON: %v", lines, err)
		}
		for _, f := range []string{"seq", "batch", "query", "strand", "leaf",
			"nodes_visited", "leaf_scanned", "reported", "sampled",
			"latency_ns", "descent_ns", "scan_ns"} {
			if _, ok := ev[f]; !ok {
				t.Fatalf("line %d missing field %q", lines, f)
			}
		}
		lines++
	}
	if lines != 2 {
		t.Fatalf("wrote %d lines, want 2", lines)
	}
}

// shortWriter fails after n bytes, for error-propagation tests.
type shortWriter struct{ n int }

func (w *shortWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("sink full")
	}
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errors.New("sink full")
	}
	w.n -= len(p)
	return len(p), nil
}

func TestJournalWriteJSONLPropagatesWriteErrors(t *testing.T) {
	j := NewJournal(JournalConfig{PerStrand: 8}, 1)
	j.Strand(0).Publish(mkEvents(1, 0, 4))
	d := j.Snapshot()
	// Fail at every possible cutoff: the error must always surface.
	var full bytes.Buffer
	if err := d.WriteJSONL(&full); err != nil {
		t.Fatalf("full write: %v", err)
	}
	for n := 0; n < full.Len(); n++ {
		if err := d.WriteJSONL(&shortWriter{n: n}); err == nil {
			t.Fatalf("cutoff %d: write error swallowed", n)
		} else if !strings.Contains(err.Error(), "sink full") {
			t.Fatalf("cutoff %d: unexpected error %v", n, err)
		}
	}
}

func TestJournalAccounting(t *testing.T) {
	j := NewJournal(JournalConfig{PerStrand: 4}, 2)
	if acc := j.Accounting(); acc != (JournalAccounting{}) || acc.OverwriteRate() != 0 {
		t.Fatalf("idle accounting: %+v", acc)
	}
	// Strand 0 wraps (10 into a ring of 4); strand 1 stays within.
	j.Strand(0).Publish(mkEvents(1, 0, 10))
	j.Strand(1).Publish(mkEvents(1, 0, 3))
	acc := j.Accounting()
	if acc.Published != 13 || acc.Overwritten != 6 || acc.Dropped != 0 {
		t.Fatalf("accounting after publish: %+v", acc)
	}
	if got, want := acc.OverwriteRate(), 6.0/13.0; got != want {
		t.Fatalf("overwrite rate = %v, want %v", got, want)
	}
	// Accounting copies nothing and consumes nothing: a following Drain
	// still sees the retained events and charges the never-seen ones.
	d := j.Drain()
	if len(d.Events) != 7 || d.Dropped != 6 {
		t.Fatalf("drain after accounting: events=%d dropped=%d", len(d.Events), d.Dropped)
	}
	acc = j.Accounting()
	if acc.Published != 13 || acc.Overwritten != 6 || acc.Dropped != 6 {
		t.Fatalf("accounting after drain: %+v", acc)
	}
	// Nil journal and nil strand are inert.
	var nj *Journal
	if acc := nj.Accounting(); acc != (JournalAccounting{}) {
		t.Fatalf("nil journal accounting: %+v", acc)
	}
}
