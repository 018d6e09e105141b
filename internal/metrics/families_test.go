package metrics

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// TestFamiliesComplete is the check a reviewer used to make by eye: in every
// family, each counter reaches the same-named snapshot field and takes part
// in the delta, the reset and the rendering. A counter added without a metric
// tag fails here (one added to a live set only does not compile).
func TestFamiliesComplete(t *testing.T) {
	t.Run("engine", func(t *testing.T) { checkFamily[EngineSnapshot](t, &EngineCounters{}) })
	t.Run("recovery", func(t *testing.T) { checkFamily[recovery[int64]](t, &RecoveryCounters{}) })
	t.Run("serve", func(t *testing.T) { checkFamily[ServeSnapshot](t, &ServeCounters{}) })
	t.Run("storage", func(t *testing.T) { checkFamily[storage[int64]](t, &StorageCounters{}) })
	t.Run("net", func(t *testing.T) { checkFamily[network[int64]](t, &new(NetCounters).network) })
	t.Run("endpoint", func(t *testing.T) { checkFamily[EndpointSnapshot](t, &EndpointCounters{}) })
}

func checkFamily[S any](t *testing.T, live any) {
	zero := snapshot[S](live)

	// Walk the live set's atomic.Int64 fields by reflection, independently
	// of the tag-driven code under test, and give counter i the value 100+i.
	var names []string
	lv := reflect.ValueOf(live).Elem()
	for i := 0; i < lv.NumField(); i++ {
		if f := lv.Type().Field(i); f.Type == reflect.TypeOf(atomic.Int64{}) {
			lv.Field(i).Addr().Interface().(*atomic.Int64).Store(int64(100 + len(names)))
			names = append(names, f.Name)
		}
	}
	if len(names) == 0 {
		t.Fatal("no counters found")
	}

	full := snapshot[S](live)
	value := func(s S, name string) int64 {
		f := reflect.ValueOf(s).FieldByName(name)
		if !f.IsValid() || f.Kind() != reflect.Int64 {
			t.Fatalf("counter %s has no same-named int64 snapshot field", name)
		}
		return f.Int()
	}
	text := render(full)
	keys := map[string]bool{}
	for i, name := range names {
		want := int64(100 + i)
		if got := value(full, name); got != want {
			t.Errorf("snapshot: %s = %d, want %d", name, got, want)
		}
		if got := value(delta(full, zero), name); got != want {
			t.Errorf("delta against zero: %s = %d, want %d", name, got, want)
		}
		if got := value(delta(full, full), name); got != 0 {
			t.Errorf("delta against itself: %s = %d, want 0", name, got)
		}
		// Rendered once, as key=value under a key of its own.
		kv := fmt.Sprintf("=%d", want)
		if n := strings.Count(text, kv); n != 1 {
			t.Errorf("render prints counter %s %d times: %q", name, n, text)
		}
		for _, word := range strings.Fields(text) {
			if key, ok := strings.CutSuffix(word, kv); ok {
				if keys[key] {
					t.Errorf("render uses key %q twice", key)
				}
				keys[key] = true
			}
		}
	}
	reset(live)
	if !reflect.DeepEqual(snapshot[S](live), zero) {
		t.Errorf("after reset: %+v, want all zero", snapshot[S](live))
	}
}

// TestNetSnapshotKnownAnswers: String and the JSON encoding of a NetSnapshot,
// byte for byte what the hand-written family produced for these inputs.
func TestNetSnapshotKnownAnswers(t *testing.T) {
	var c NetCounters
	c.Retries.Store(3)
	c.Timeouts.Store(1)
	c.Failovers.Store(2)
	c.Redials.Store(4)
	c.DegradedWrites.Store(5)
	c.DegradedReads.Store(6)
	check := func(wantStr, wantJSON string) {
		t.Helper()
		s := c.Snapshot()
		if got := s.String(); got != wantStr {
			t.Errorf("String() = %q\nwant       %q", got, wantStr)
		}
		if got, err := json.Marshal(s); err != nil || string(got) != wantJSON {
			t.Errorf("JSON = %s (err %v)\nwant   %s", got, err, wantJSON)
		}
	}
	check("retries=3 timeouts=1 failovers=2 redials=4 degraded_writes=5 degraded_reads=6",
		`{"Retries":3,"Timeouts":1,"Failovers":2,"Redials":4,"DegradedWrites":5,"DegradedReads":6}`)
	c.Resyncs.Add(7)
	c.ResyncBytes.Add(4096)
	c.Endpoint("b:2").Failovers.Add(1)
	c.Endpoint("b:2").Errors.Add(9)
	c.Endpoint("a:1").Resyncs.Add(7)
	c.Endpoint("a:1").ResyncBytes.Add(4096)
	check("retries=3 timeouts=1 failovers=2 redials=4 degraded_writes=5 degraded_reads=6 quorum_shortfalls=0 resyncs=7 resync_bytes=4096"+
		" [a:1: failovers=0 errors=0 resyncs=7 resync_bytes=4096] [b:2: failovers=1 errors=9 resyncs=0 resync_bytes=0]",
		`{"Retries":3,"Timeouts":1,"Failovers":2,"Redials":4,"DegradedWrites":5,"DegradedReads":6,"Resyncs":7,"ResyncBytes":4096,`+
			`"Endpoints":{"a:1":{"failovers":0,"errors":0,"resyncs":7,"resync_bytes":4096},"b:2":{"failovers":1,"errors":9}}}`)

	// Endpoint counters subtract pairwise; one absent from prev passes through.
	prev := c.Snapshot()
	c.Endpoint("b:2").Errors.Add(2)
	c.Endpoint("c:3").Failovers.Add(1)
	d := c.Snapshot().Sub(prev)
	if d.Endpoints["b:2"].Errors != 2 || d.Endpoints["b:2"].Failovers != 0 || d.Endpoints["c:3"].Failovers != 1 {
		t.Errorf("endpoint delta = %+v", d.Endpoints)
	}
}
