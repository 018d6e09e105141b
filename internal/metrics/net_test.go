package metrics

import (
	"strings"
	"testing"
)

func TestNetSnapshotSubAndString(t *testing.T) {
	var c NetCounters
	before := c.Snapshot()
	c.Retries.Add(3)
	c.Timeouts.Add(1)
	c.DegradedWrites.Add(2)
	delta := c.Snapshot().Sub(before)
	if delta.Retries != 3 || delta.Timeouts != 1 || delta.DegradedWrites != 2 {
		t.Fatalf("delta = %+v", delta)
	}
	s := delta.String()
	if !strings.Contains(s, "retries=3") {
		t.Fatalf("String() = %q, want retries=3", s)
	}
	c.Reset()
	if s := c.Snapshot(); s.network != (network[int64]{}) || len(s.Endpoints) != 0 {
		t.Fatalf("after Reset: %+v", s)
	}
}

func TestGlobalNetCounters(t *testing.T) {
	base := Net.Snapshot()
	Net.Failovers.Add(1)
	if d := Net.Snapshot().Sub(base); d.Failovers != 1 {
		t.Fatalf("global Failovers delta = %d, want 1", d.Failovers)
	}
}
