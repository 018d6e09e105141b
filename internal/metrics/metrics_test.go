package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBasicStats(t *testing.T) {
	h := &Histogram{}
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count %d", h.Count())
	}
	mean := h.Mean()
	if mean < 40*time.Millisecond || mean > 60*time.Millisecond {
		t.Fatalf("mean %v", mean)
	}
	p50 := h.Quantile(0.5)
	if p50 < 40*time.Millisecond || p50 > 60*time.Millisecond {
		t.Fatalf("p50 %v", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 90*time.Millisecond || p99 > 110*time.Millisecond {
		t.Fatalf("p99 %v", p99)
	}
	if h.Quantile(1.0) > 100*time.Millisecond {
		t.Fatalf("p100 above max: %v", h.Quantile(1.0))
	}
}

func TestQuantileMonotonic(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < 10_000; i++ {
		h.Record(time.Duration(i%977) * time.Microsecond)
	}
	prev := time.Duration(0)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999} {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile %v < previous (%v < %v)", q, v, prev)
		}
		prev = v
	}
}

func TestEmptyHistogram(t *testing.T) {
	h := &Histogram{}
	if h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Fatal("empty histogram not zero")
	}
}

func TestMerge(t *testing.T) {
	a, b := &Histogram{}, &Histogram{}
	for i := 0; i < 50; i++ {
		a.Record(time.Millisecond)
		b.Record(100 * time.Millisecond)
	}
	a.Merge(b)
	if a.Count() != 100 {
		t.Fatalf("merged count %d", a.Count())
	}
	p99 := a.Quantile(0.99)
	if p99 < 90*time.Millisecond {
		t.Fatalf("merge lost the slow half: p99=%v", p99)
	}
	p25 := a.Quantile(0.25)
	if p25 > 2*time.Millisecond {
		t.Fatalf("merge lost the fast half: p25=%v", p25)
	}
}

func TestConcurrentRecord(t *testing.T) {
	h := &Histogram{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10_000; i++ {
				h.Record(time.Duration(i) * time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 80_000 {
		t.Fatalf("count %d", h.Count())
	}
}

func TestAccuracyWithinBucketResolution(t *testing.T) {
	h := &Histogram{}
	exact := 12345 * time.Microsecond
	for i := 0; i < 1000; i++ {
		h.Record(exact)
	}
	got := h.Quantile(0.5)
	// Buckets grow by 8%; the answer must be within that.
	lo := time.Duration(float64(exact) * 0.90)
	hi := time.Duration(float64(exact) * 1.10)
	if got < lo || got > hi {
		t.Fatalf("p50 %v outside [%v,%v]", got, lo, hi)
	}
}

// TestStringWhileRecording: String used to read max after releasing the
// lock, a data race with Record (run under -race).
func TestStringWhileRecording(t *testing.T) {
	h := &Histogram{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= 20_000; i++ {
			h.Record(time.Duration(i) * time.Microsecond)
		}
	}()
	for i := 0; i < 200; i++ {
		_ = h.String()
	}
	<-done
	if want := "n=20000 "; !strings.HasPrefix(h.String(), want) {
		t.Fatalf("String() = %q, want prefix %q", h.String(), want)
	}
}
