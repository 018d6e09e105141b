package metrics

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
)

// A counter family is declared once (families.go), as a struct generic in
// its cell type: instantiated with atomic.Int64 it is the live set, whose
// counters call sites bump directly, and with int64 it is the snapshot, so
// the two cannot drift apart. Each field's tag is its whole description,
//
//	metric:"<printed key>[,optional]"
//
// and the operations every family has are the functions below, driven by
// that declaration. optional fields print only when one of them is non-zero.

// field is one tagged field of a family struct.
type field struct {
	val      reflect.Value
	key      string
	optional bool
}

// fields returns the tagged fields of the family struct *p in declaration
// order; live set and snapshot of a family yield the same sequence.
func fields(p any) []field {
	v := reflect.ValueOf(p).Elem()
	out := make([]field, 0, v.NumField())
	for i := 0; i < v.NumField(); i++ {
		tag, ok := v.Type().Field(i).Tag.Lookup("metric")
		if !ok {
			continue
		}
		key, opts, _ := strings.Cut(tag, ",")
		out = append(out, field{
			val:      v.Field(i),
			key:      key,
			optional: opts == "optional",
		})
	}
	return out
}

// counter returns the live cell behind f.
func (f field) counter() *atomic.Int64 { return f.val.Addr().Interface().(*atomic.Int64) }

// snapshot loads every counter of the live set *c into a new S.
func snapshot[S any](c any) S {
	var s S
	dst := fields(&s)
	for i, f := range fields(c) {
		dst[i].val.SetInt(f.counter().Load())
	}
	return s
}

// reset zeroes every counter of the live set *c.
func reset(c any) {
	for _, f := range fields(c) {
		f.counter().Store(0)
	}
}

// delta returns s minus prev.
func delta[S any](s, prev S) S {
	before := fields(&prev)
	for i, f := range fields(&s) {
		f.val.SetInt(f.val.Int() - before[i].val.Int())
	}
	return s
}

// render prints the snapshot as space-separated key=value pairs.
func render[S any](s S) string {
	fs := fields(&s)
	optional := false
	for _, f := range fs {
		optional = optional || (f.optional && f.val.Int() != 0)
	}
	var b strings.Builder
	for _, f := range fs {
		if f.optional && !optional {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", f.key, f.val.Int())
	}
	return b.String()
}
