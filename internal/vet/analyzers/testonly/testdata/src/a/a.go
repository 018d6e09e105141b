// Package a exercises the testonly analyzer: a function only a _test.go
// file calls is flagged, as is one only its own body calls; calls from
// another package, method values, generic instantiations, interface
// satisfaction (fmt.Stringer, error and what errors.Is and As call) and a
// reasoned directive count as reasons to stay.
package a

import "fmt"

// Used is called from package b.
func Used() { fmt.Print(name("n")) }

// OnlyTested is called from a_test.go alone.
func OnlyTested() {} // want `OnlyTested has no non-test caller`

func helper() {}

// caller keeps helper alive but has no caller itself.
func caller() { helper() } // want `caller has no non-test caller`

func countdown(n int) int { // want `countdown has no non-test caller`
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

// T is used by package b.
type T struct{ err error }

func (T) Uncalled() {} // want `T\.Uncalled has no non-test caller`

func (T) ValueOnly() {}

func (t T) Error() string { return "t" }

func (t T) Unwrap() error { return t.err }

// name is used through fmt.Stringer only.
type name string

func (n name) String() string { return string(n) }

// Box is instantiated by package b.
type Box[V any] struct{ v V }

func (b Box[V]) Get() V { return b.v }

// Kept has no caller on purpose.
//
//shield:notestonly the fixture's reasoned directive suppresses the finding
func Kept() {}

//shield:notestonly
func Bare() {} // want `Bare has no non-test caller`

func init() {}
