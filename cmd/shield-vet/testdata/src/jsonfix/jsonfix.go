// Package jsonfix is a shield-vet driver-test fixture: two deterministic
// findings (nofs) for the -json golden-file test and the parallel-vs-serial
// equality test. Both functions are referenced, so testonly reports nothing.
package jsonfix

import "os"

func readRaw(name string) ([]byte, error) {
	return os.ReadFile(name)
}

func dropRaw(name string) error {
	return os.Remove(name)
}

var _, _ = readRaw, dropRaw
