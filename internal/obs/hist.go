package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// histBuckets is the number of log2 buckets. Bucket semantics, exactly:
//
//   - Bucket i (1 ≤ i ≤ histBuckets−2) counts values whose bit length is
//     i, i.e. v ∈ [2^{i−1}, 2^i). A value exactly on a power-of-two edge
//     belongs to the bucket whose range it OPENS: v = 2^j has bit length
//     j+1 and lands in bucket j+1, never in bucket j (whose inclusive
//     upper bound Le = 2^j − 1 excludes it).
//   - Bucket 0 holds exactly v == 0 (negative observations are clamped
//     to 0 before bucketing; no paper quantity is negative).
//   - The top bucket (i = histBuckets−1) is an overflow bucket: it
//     absorbs every v ≥ 2^{histBuckets−2} — including values whose bit
//     length exceeds the array — so its exported Le is math.MaxInt64
//     ("+Inf" in Prometheus exposition), not 2^{histBuckets−1} − 1.
//
// Snapshots export each non-empty bucket with Le = 2^i − 1, the largest
// value the bucket can hold (inclusive upper bound), so cumulative
// ≤-style readings (Prometheus `le`) are exact. 40 buckets cover every
// feasible paper quantity: 2^38 nanoseconds is over four minutes and
// 2^38 elements is far past addressable problem sizes.
const histBuckets = 40

// histogram is a lock-free (strand-confined) log2 histogram with exact
// count/sum/min/max. Log2 buckets match the paper's quantities, whose
// interesting structure is their growth order (m^μ, log m), not fine
// precision.
type histogram struct {
	count   int64
	sum     int64
	min     int64
	max     int64
	buckets [histBuckets]int64
}

func bucketOf(v int64) int {
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

func (h *histogram) observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.buckets[bucketOf(v)]++
}

func (h *histogram) merge(o *histogram) {
	if o.count == 0 {
		return
	}
	h.count += o.count
	h.sum += o.sum
	if o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
}

// Hist is a histogram snapshot in export form.
type Hist struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
	// Buckets lists the non-empty log2 buckets in ascending order; Le is
	// the bucket's inclusive upper bound (2^i − 1 for bucket i, and
	// math.MaxInt64 for the overflow top bucket — see histBuckets).
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Bucket is one non-empty log2 histogram bucket.
type Bucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// Mean returns the histogram's exact mean (0 when empty).
func (h Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// LogHist is the exported, caller-synchronized form of the log2
// histogram, for long-lived components outside a build Recorder (the
// batched query engine's per-batch latency record). The zero value is
// ready to use. Not safe for concurrent Observe; owners serialize.
type LogHist struct {
	h histogram
}

// Observe records one value.
func (l *LogHist) Observe(v int64) {
	if l.h.count == 0 {
		l.h.min = math.MaxInt64
	}
	l.h.observe(v)
}

// Snapshot returns the histogram in export form.
func (l *LogHist) Snapshot() Hist { return l.h.snapshot() }

func (h *histogram) snapshot() Hist {
	out := Hist{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	if h.count == 0 {
		out.Min = 0
	}
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		out.Buckets = append(out.Buckets, Bucket{Le: bucketLe(i), Count: c})
	}
	return out
}

// bucketLe returns bucket i's inclusive upper bound in export form:
// 2^i − 1, except the top bucket, which is an overflow bucket (it holds
// every value of bit length ≥ histBuckets−1) whose honest upper bound
// is unbounded, not 2^{histBuckets−1} − 1.
func bucketLe(i int) int64 {
	if i == histBuckets-1 {
		return math.MaxInt64
	}
	return int64(1)<<uint(i) - 1
}

// AtomicHist is the race-safe form of the log2 histogram: identical
// bucket semantics (see histBuckets), every field an atomic, so
// concurrent writers and Snapshot readers need no lock. Multi-field
// reads under concurrent writes are individually consistent but not
// mutually transactional — a telemetry snapshot may be mid-observation
// by one count, which is the standard Prometheus contract.
type AtomicHist struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Reset arms an AtomicHist for first use (min must start at MaxInt64 so
// the CAS floor works; the zero value's min of 0 would stick), so
// recording never needs a lazy-init branch.
func (h *AtomicHist) Reset() { h.min.Store(math.MaxInt64) }

// Observe records one value (negatives clamp to 0, as in histogram).
func (h *AtomicHist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.min.Load()
		if v >= m || h.min.CompareAndSwap(m, v) {
			break
		}
	}
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
	h.buckets[bucketOf(v)].Add(1)
}

// Snapshot returns the histogram in export form.
func (h *AtomicHist) Snapshot() Hist {
	var plain histogram
	plain.min = math.MaxInt64
	h.mergeInto(&plain)
	if plain.count == 0 {
		plain.min = math.MaxInt64 // snapshot() normalizes to 0
	}
	return plain.snapshot()
}

func (h *AtomicHist) mergeInto(dst *histogram) {
	c := h.count.Load()
	if c == 0 {
		return
	}
	dst.count += c
	dst.sum += h.sum.Load()
	if m := h.min.Load(); m < dst.min {
		dst.min = m
	}
	if m := h.max.Load(); m > dst.max {
		dst.max = m
	}
	for i := range dst.buckets {
		dst.buckets[i] += h.buckets[i].Load()
	}
}
