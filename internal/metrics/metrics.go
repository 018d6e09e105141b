// Package metrics provides the latency histogram shield-bench keeps
// and the process-wide counter families the engine, the network clients and
// the serving layer report into.
package metrics

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Histogram is a concurrent log-bucketed latency histogram. Buckets grow
// geometrically from 100 ns, giving ~4% resolution across ns..minutes.
type Histogram struct {
	mu      sync.Mutex
	buckets [256]int64
	count   int64
	sum     int64
	max     int64
}

const bucketGrowth = 1.08

// bucketFor maps a duration in nanoseconds to a bucket index.
func bucketFor(ns int64) int {
	if ns < 100 {
		return 0
	}
	idx := int(math.Log(float64(ns)/100) / math.Log(bucketGrowth))
	if idx < 0 {
		idx = 0
	}
	if idx > 255 {
		idx = 255
	}
	return idx
}

// bucketValue returns the representative nanoseconds of a bucket.
func bucketValue(idx int) int64 {
	return int64(100 * math.Pow(bucketGrowth, float64(idx)))
}

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	ns := d.Nanoseconds()
	h.mu.Lock()
	h.buckets[bucketFor(ns)]++
	h.count++
	h.sum += ns
	if ns > h.max {
		h.max = ns
	}
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the average latency.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum / h.count)
}

// Quantile returns the approximate q-quantile (0 < q <= 1).
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	target := int64(q * float64(h.count))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i, c := range h.buckets {
		seen += c
		if seen >= target {
			v := bucketValue(i)
			if v > h.max {
				v = h.max
			}
			return time.Duration(v)
		}
	}
	return time.Duration(h.max)
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	other.mu.Lock()
	buckets := other.buckets
	oCount, oSum, oMax := other.count, other.sum, other.max
	other.mu.Unlock()

	h.mu.Lock()
	defer h.mu.Unlock()
	for i, c := range buckets {
		h.buckets[i] += c
	}
	if oMax > h.max {
		h.max = oMax
	}
	h.count += oCount
	h.sum += oSum
}

// String summarizes the distribution as of one instant: Merge copies h under
// one acquisition of its lock, and the five values come from that copy.
func (h *Histogram) String() string {
	var at Histogram
	at.Merge(h)
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		at.count, at.Mean(), at.Quantile(0.50), at.Quantile(0.99), time.Duration(at.max))
}
