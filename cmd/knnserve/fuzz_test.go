package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"sepdc"
)

// FuzzServeJSONQuery posts arbitrary bodies to the JSON /query path of
// an in-process server. The service must never panic and never answer
// with a 5xx other than 503 (admission shedding), and every 200 must
// carry exactly the answers a direct Batcher over the same points
// computes for the request the server decoded.
func FuzzServeJSONQuery(f *testing.F) {
	srv, err := newServer(testConfig())
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	h := srv.handler()
	qs, err := sepdc.NewQueryStructure(srv.points, srv.cfg.k, 987654321)
	if err != nil {
		f.Fatal(err)
	}
	bt := qs.NewBatcher(1)

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest("POST", "/query", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code >= 500 && rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body.Bytes())
		}
		if rec.Code != http.StatusOK {
			return
		}
		var got jsonQueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("200 response is not JSON: %v: %s", err, rec.Body.Bytes())
		}
		// The server reads the first JSON value of the body, as here.
		var jreq jsonQueryRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&jreq); err != nil {
			t.Fatalf("server accepted a body the decoder rejects: %v", err)
		}
		if got.Closed != jreq.Closed || len(got.Results) != len(jreq.Queries) {
			t.Fatalf("response closed=%v rows=%d, request closed=%v queries=%d",
				got.Closed, len(got.Results), jreq.Closed, len(jreq.Queries))
		}
		if jreq.Closed {
			err = bt.RunClosed(jreq.Queries)
		} else {
			err = bt.Run(jreq.Queries)
		}
		if err != nil {
			t.Fatalf("server answered a request the Batcher rejects: %v", err)
		}
		for i := range jreq.Queries {
			if want := bt.Result(i); !slices.Equal(got.Results[i], want) {
				t.Fatalf("query %d %v: served %v, direct %v", i, jreq.Queries[i], got.Results[i], want)
			}
		}
	})
}
