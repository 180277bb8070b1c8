// Package hist provides the repository's latency histogram: a fixed-size,
// allocation-free, mergeable log-linear histogram for non-negative integer
// samples (nanoseconds on the live drivers, ticks in the simulator).
//
// Values below 16 are counted exactly. Larger values land in one of 16
// linear sub-buckets of their power-of-two range [2^(e-1), 2^e), so every
// reported quantile is an upper bound within 1/16 (6.25%) of the true
// sample quantile. The bucket array is constant-size (no allocation per
// sample), Add is a handful of integer operations, and two histograms merge
// bucket-by-bucket — which is what lets per-worker recorders stay lock-free
// and be folded together after a measurement window.
//
// The package is stdlib-only and has no dependencies inside the repository,
// so the observability layer (internal/obs) builds on it without import
// cycles.
package hist

import (
	"math"
	"math/bits"
)

// subBits is the log2 of the per-range linear sub-bucket count. 4 bits =
// 16 sub-buckets = at most 1/16 relative quantile error.
const subBits = 4

// nBuckets covers values 0..15 exactly plus 16 sub-buckets for each
// power-of-two range up to 2^63.
const nBuckets = (1 << subBits) + (63-subBits)*(1<<subBits)

// Histogram accumulates non-negative int64 samples. The zero value is an
// empty histogram ready for use. It is not safe for concurrent use; callers
// either guard it with their own lock (internal/obs) or keep one per
// goroutine and Merge afterwards.
type Histogram struct {
	count    uint64
	sum      float64
	min, max int64
	buckets  [nBuckets]uint64
}

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	u := uint64(v)
	e := bits.Len64(u)
	if e <= subBits {
		return int(u) // 0..15 exact
	}
	sub := (u - 1<<(e-1)) >> (e - 1 - subBits)
	return 1<<subBits + (e-1-subBits)*(1<<subBits) + int(sub)
}

// bucketUpper returns the inclusive upper edge of a bucket.
func bucketUpper(idx int) int64 {
	if idx < 1<<subBits {
		return int64(idx)
	}
	idx -= 1 << subBits
	e := idx>>subBits + subBits + 1 // values with bit length e
	sub := uint64(idx & (1<<subBits - 1))
	base := uint64(1) << (e - 1)
	width := uint64(1) << (e - 1 - subBits)
	return int64(base + (sub+1)*width - 1)
}

// Add folds one sample into the histogram. Negative samples — which can only
// arise from clock trouble on a live driver — are clamped to zero.
func (h *Histogram) Add(v int64) {
	if v < 0 {
		v = 0
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += float64(v)
	h.buckets[bucketIndex(v)]++
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the exact sample mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest sample (0 when empty).
func (h *Histogram) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample (0 when empty).
func (h *Histogram) Max() int64 { return h.max }

// Quantile returns an upper bound for the p-th quantile (0 ≤ p ≤ 1): the
// upper edge of the bucket holding the rank-⌈p·n⌉ sample, clamped to the
// observed maximum. The bound is exact for values below 16 and within 1/16
// of the true sample quantile otherwise.
func (h *Histogram) Quantile(p float64) int64 {
	if h.count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var seen uint64
	for i, c := range h.buckets {
		seen += c
		if seen >= rank {
			edge := bucketUpper(i)
			if edge > h.max {
				edge = h.max
			}
			return edge
		}
	}
	return h.max
}

// Merge folds another histogram into h. Merging then querying is equivalent
// to having recorded both sample sets into one histogram.
func (h *Histogram) Merge(o *Histogram) {
	if o.count == 0 {
		return
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
}

// Reset returns the histogram to its empty state.
func (h *Histogram) Reset() { *h = Histogram{} }

// Summary is a point-in-time digest of a histogram in the sample's time
// unit. Quantiles are log-linear-bucket upper bounds (≤ 6.25% above the
// true sample quantile, exact below 16 and at the maximum).
type Summary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P95   int64   `json:"p95"`
	P99   int64   `json:"p99"`
}

// Stats summarizes the histogram. An empty histogram summarizes to the zero
// Summary.
func (h *Histogram) Stats() Summary {
	if h.count == 0 {
		return Summary{}
	}
	return Summary{
		Count: h.count,
		Mean:  h.Mean(),
		Min:   h.min,
		Max:   h.max,
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}
