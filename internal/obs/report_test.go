package obs

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"
)

// failAfter is an io.Writer that fails once n bytes have been written —
// the satellite-3 failing-writer fixture.
type failAfter struct {
	n   int
	err error
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, f.err
	}
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, f.err
	}
	f.n -= len(p)
	return len(p), nil
}

func buildReportForTest() *BuildReport {
	r := New(Config{})
	sh := r.Root()
	sh.Observe(HNodeSize, 256)
	sh.End(sh.Begin(), PhaseDivide, SpanDivide, 64)
	return r.Finish(5*time.Millisecond, map[string]int64{"nodes": 3})
}

func TestWriteTextRendersReport(t *testing.T) {
	rep := buildReportForTest()
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"observability report", "counter nodes", "hist node_size", "phase divide", "wall 5ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	var nilRep *BuildReport
	if err := nilRep.WriteText(&buf); err == nil {
		t.Error("nil report rendered without error")
	}
}

// TestWriteTextPropagatesWriteError: the renderer must surface the
// writer's failure no matter which line it lands on.
func TestWriteTextPropagatesWriteError(t *testing.T) {
	rep := buildReportForTest()
	var full bytes.Buffer
	if err := rep.WriteText(&full); err != nil {
		t.Fatal(err)
	}
	sink := errors.New("sink failed")
	for n := 0; n < full.Len(); n += 7 {
		err := rep.WriteText(&failAfter{n: n, err: sink})
		if !errors.Is(err, sink) {
			t.Fatalf("failure after %d bytes: got %v, want sink error", n, err)
		}
	}
}

// TestWriteTracePropagatesWriteError: the trace emitter must do the
// same (it streams JSON through the writer).
func TestWriteTracePropagatesWriteError(t *testing.T) {
	r := New(Config{Trace: true})
	sh := r.Root()
	sh.End(sh.Begin(), PhaseDivide, SpanDivide, 8)
	r.Finish(time.Millisecond, nil)

	var full bytes.Buffer
	if err := r.WriteTrace(&full); err != nil {
		t.Fatal(err)
	}
	sink := errors.New("sink failed")
	for _, n := range []int{0, 1, full.Len() / 2, full.Len() - 1} {
		err := r.WriteTrace(&failAfter{n: n, err: sink})
		if !errors.Is(err, sink) {
			t.Fatalf("failure after %d bytes: got %v, want sink error", n, err)
		}
	}
}
