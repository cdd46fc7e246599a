package serveproto

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

func sampleQueries() [][]float64 {
	return [][]float64{
		{0.25, 0.75, 0.5},
		{0, 0, 0},
		{-1.5, 2.25, 1e-12},
	}
}

func TestRequestRoundTrip(t *testing.T) {
	for _, closed := range []bool{false, true} {
		buf := AppendRequest(nil, sampleQueries(), 3, closed)
		var req Request
		if err := DecodeRequestInto(buf, &req); err != nil {
			t.Fatalf("closed=%v: %v", closed, err)
		}
		if req.Closed != closed || req.Dim != 3 || len(req.Queries) != 3 {
			t.Fatalf("closed=%v: decoded header %+v", closed, req)
		}
		for i, q := range sampleQueries() {
			for c := range q {
				if req.Queries[i][c] != q[c] {
					t.Fatalf("query %d coord %d: got %v want %v", i, c, req.Queries[i][c], q[c])
				}
			}
		}
	}
}

func TestRequestEmptyBatch(t *testing.T) {
	buf := AppendRequest(nil, nil, 2, false)
	var req Request
	if err := DecodeRequestInto(buf, &req); err != nil {
		t.Fatal(err)
	}
	if len(req.Queries) != 0 || req.Dim != 2 {
		t.Fatalf("decoded %+v", req)
	}
}

func TestDecodeRequestIntoReuses(t *testing.T) {
	buf := AppendRequest(nil, sampleQueries(), 3, false)
	var req Request
	if err := DecodeRequestInto(buf, &req); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := DecodeRequestInto(buf, &req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed DecodeRequestInto allocates %.1f per op, want 0", allocs)
	}
}

func TestRequestDecodeErrors(t *testing.T) {
	good := AppendRequest(nil, sampleQueries(), 3, false)

	corrupt := func(mut func(b []byte) []byte) []byte {
		b := append([]byte(nil), good...)
		return mut(b)
	}
	cases := []struct {
		name string
		buf  []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short header", good[:8], ErrTruncated},
		{"bad magic", corrupt(func(b []byte) []byte { b[0] = 'X'; return b }), ErrBadMagic},
		{"bad version", corrupt(func(b []byte) []byte { b[4] = 9; return b }), ErrVersion},
		{"undefined flags", corrupt(func(b []byte) []byte { b[5] = 0x80; return b }), ErrBadFlags},
		{"zero dim", corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[6:8], 0)
			return b
		}), ErrBounds},
		{"huge dim", corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[6:8], MaxDim+1)
			return b
		}), ErrBounds},
		{"huge count", corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:12], MaxQueries+1)
			return b
		}), ErrBounds},
		{"count overruns payload", corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:12], 4)
			return b
		}), ErrTruncated},
		{"trailing bytes", append(append([]byte(nil), good...), 0), ErrTrailing},
		{"truncated payload", good[:len(good)-1], ErrTruncated},
		{"nan coordinate", corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[12:20], math.Float64bits(math.NaN()))
			return b
		}), ErrNonFinite},
		{"inf coordinate", corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[12:20], math.Float64bits(math.Inf(-1)))
			return b
		}), ErrNonFinite},
	}
	for _, tc := range cases {
		var req Request
		if err := DecodeRequestInto(tc.buf, &req); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	rows := [][]int{{0, 3, 17}, {}, {5}}
	buf := AppendResponse(nil, 7, true, len(rows), func(i int) []int { return rows[i] })
	resp, err := DecodeResponse(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Closed || resp.Epoch != 7 || len(resp.Rows) != 3 {
		t.Fatalf("decoded header %+v", resp)
	}
	for i, row := range rows {
		if len(resp.Rows[i]) != len(row) {
			t.Fatalf("row %d: %v want %v", i, resp.Rows[i], row)
		}
		for j, id := range row {
			if int(resp.Rows[i][j]) != id {
				t.Fatalf("row %d: %v want %v", i, resp.Rows[i], row)
			}
		}
	}
}

func TestResponseDecodeErrors(t *testing.T) {
	rows := [][]int{{1, 2}, {3}}
	good := AppendResponse(nil, 1, false, len(rows), func(i int) []int { return rows[i] })
	cases := []struct {
		name string
		buf  []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"bad magic", append([]byte("XXXX"), good[4:]...), ErrBadMagic},
		{"reserved nonzero", func() []byte {
			b := append([]byte(nil), good...)
			b[6] = 1
			return b
		}(), ErrCorrupt},
		{"row length overrun", func() []byte {
			b := append([]byte(nil), good...)
			binary.LittleEndian.PutUint32(b[respHeaderLen:], 1<<30)
			return b
		}(), ErrBounds},
		{"truncated ids", good[:len(good)-2], ErrTruncated},
		{"trailing", append(append([]byte(nil), good...), 0xff), ErrTrailing},
	}
	for _, tc := range cases {
		if _, err := DecodeResponse(tc.buf); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}
