package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"shield/internal/core"
	"shield/internal/lsm"
)

// TestContractMatchesSpec keeps BENCHMARK.json and spec.go from drifting: the
// driver reads the one, the runner prints by the other.
func TestContractMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q differs from spec.go %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, spec.go %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json %+v differs from spec.go %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != w.bound) {
				t.Errorf("%s %s: bound differs from spec.go (%v)", kind, g.Name, w.bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	if doc.RunSeconds != 10 || !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) ||
		!reflect.DeepEqual(doc.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("command, paths or run_seconds changed: %v %v %d", doc.Command, doc.Paths, doc.RunSeconds)
	}
}

func TestGeneratorsAreAFunctionOfTheSeed(t *testing.T) {
	draw := func(seed uint64, zipfian bool) []int {
		ks := newKeyStream(seed, 2, 10_000, zipfian)
		out := make([]int, 500)
		for i := range out {
			out[i] = ks.next()
		}
		return out
	}
	for _, zipfian := range []bool{false, true} {
		if !reflect.DeepEqual(draw(7, zipfian), draw(7, zipfian)) {
			t.Errorf("zipfian=%v: equal seeds gave different key sequences", zipfian)
		}
		if reflect.DeepEqual(draw(7, zipfian), draw(8, zipfian)) {
			t.Errorf("zipfian=%v: different seeds gave the same key sequence", zipfian)
		}
	}
	if !reflect.DeepEqual(newRNG(7, 1).perm(1000), newRNG(7, 1).perm(1000)) ||
		reflect.DeepEqual(newRNG(7, 1).perm(1000), newRNG(8, 1).perm(1000)) {
		t.Error("load order is not a function of the seed alone")
	}

	var a, b [valueLen]byte
	fillValue(a[:], 7, 42, 3)
	fillValue(b[:], 7, 42, 3)
	if a != b {
		t.Error("equal (seed, key, version) gave different values")
	}
	for _, other := range [][3]uint64{{8, 42, 3}, {7, 43, 3}, {7, 42, 4}} {
		fillValue(b[:], other[0], int(other[1]), uint32(other[2]))
		if a == b {
			t.Errorf("(seed, key, version) %v gave the same value as (7, 42, 3)", other)
		}
	}
	if ver, ok := checkValue(a[:], 7, 42); !ok || ver != 3 {
		t.Errorf("checkValue rejected a generated value: version %d ok %v", ver, ok)
	}
	a[100] ^= 1
	if _, ok := checkValue(a[:], 7, 42); ok {
		t.Error("checkValue accepted a value with a flipped bit")
	}

	// Zipfian 0.99 over 10k keys: the hottest key draws about 10 % of requests.
	ks, hits := newKeyStream(7, 2, 10_000, true), map[int]int{}
	for i := 0; i < 20_000; i++ {
		hits[ks.next()]++
	}
	top := 0
	for _, n := range hits {
		top = max(top, n)
	}
	if top < 1200 || top > 3200 {
		t.Errorf("hottest key drew %d of 20000 requests, want about 2000", top)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q3 = quartiles([]float64{1, 2, 4, 8, 16}); q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v; want 1.5, 12", q1, q3)
	}
}

// smokeConfig is the full benchmark at a hundredth of its size.
func smokeConfig(trace bool) runConfig {
	return runConfig{seed: 1789, seconds: 0.3, trace: trace, mode: core.ModeSHIELD, scale: 0.01, setups: 1}
}

// TestEveryMetricOnEveryWorkload runs all four workloads, untraced and
// traced, and requires each to pass its own correctness checks and to emit
// every metric the contract names exactly once, as a finite number.
func TestEveryMetricOnEveryWorkload(t *testing.T) {
	for i := range workloads {
		spec := &workloads[i]
		for _, trace := range []bool{false, true} {
			r := &runner{spec: spec, cfg: smokeConfig(trace), keys: max(2*pipelineDepth, spec.keys/100&^1)}
			run := r.runUntraced
			if trace {
				run = r.runTraced
			}
			res, err := run()
			if err != nil {
				t.Fatalf("%s trace=%v: %v", spec.name, trace, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed (%v)", spec.name, trace, res.failed, res.attempted, res.notes)
			}
			line, err := lineFor(res, trace) // fails on a missing or an extra metric
			if err != nil {
				t.Fatalf("%s trace=%v: %v", spec.name, trace, err)
			}
			for name, m := range line.Metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s %s = %v", spec.name, name, m.Value)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s %s = %v; an end-to-end metric is never 0", spec.name, name, m.Value)
				}
			}
			if !trace {
				continue
			}
			checkSelfTimes(t, spec.name, r.t.recorded())
			if exact, ok := res.notes["repeat_exact"]; ok != (spec.getPct == 100) || (ok && exact != true) {
				t.Errorf("%s: repeat check: %v", spec.name, res.notes["repeat_counts"])
			}
			if spec.kind == stackServed && res.notes["durability"] == nil {
				t.Errorf("%s: the traced run did not check durability", spec.name)
			}
		}
	}
}

// checkSelfTimes requires, for every foreground operation, that the self
// times of the spans in its tree add up to the operation's own duration:
// nothing is attributed twice and nothing is lost between layers.
func checkSelfTimes(t *testing.T, name string, spans []span) {
	t.Helper()
	a := analyze(spans)
	sum := map[int32]int64{}
	ops := 0
	for i := range spans {
		if a.self[i] < 0 {
			t.Fatalf("%s: span %d (%s) has negative self time %d", name, i, spans[i].name, a.self[i])
		}
		if a.foreground(i) {
			sum[a.root[i]] += a.self[i]
		}
	}
	for root, total := range sum {
		ops++
		if total != spans[root].dur() {
			t.Fatalf("%s: %s span %d lasted %d ns but its tree's self times add up to %d", name, spans[root].name, root, spans[root].dur(), total)
		}
	}
	if ops == 0 {
		t.Errorf("%s: the traced run recorded no foreground operation", name)
	}
}

func TestSpanParentsFollowTheGoroutine(t *testing.T) {
	tr := newTracer(16)
	tr.enable(true)
	op := tr.begin(spOpGet, lsm.FileKindOther)
	outer := tr.begin(spCrypt+fRead, lsm.FileKindSST)
	inner := tr.begin(spVFS+fRead, lsm.FileKindSST)
	inner.end(4096)
	outer.end(4000)
	done := make(chan struct{})
	go func() { // another goroutine: a root of its own, even while op is open
		defer close(done)
		tr.begin(spCrypt+fWrite, lsm.FileKindWAL).end(512)
	}()
	<-done
	op.end(256)
	tr.enable(false)
	tr.begin(spOpPut, lsm.FileKindOther).end(0) // off: not recorded

	spans := tr.recorded()
	if len(spans) != 4 {
		t.Fatalf("recorded %d spans, want 4", len(spans))
	}
	wantParent := []int32{-1, 0, 1, -1}
	for i, s := range spans {
		if s.parent != wantParent[i] {
			t.Errorf("span %d (%s): parent %d, want %d", i, s.name, s.parent, wantParent[i])
		}
	}
	a := analyze(spans)
	if !a.foreground(2) || a.foreground(3) {
		t.Error("the nested read must be foreground and the other goroutine's write background")
	}
	if got := a.self[0] + a.self[1] + a.self[2]; got != spans[0].dur() {
		t.Errorf("self times add up to %d, the operation lasted %d", got, spans[0].dur())
	}
}
