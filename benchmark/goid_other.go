//go:build !amd64

package main

import (
	"bytes"
	"runtime"
	"strconv"
)

// goid is the portable fallback: the goroutine number runtime.Stack prints.
// Correct but slow, so trace.overhead_frac is larger off amd64.
func goid() uintptr {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i >= 0 {
		b = b[:i]
	}
	n, _ := strconv.ParseUint(string(b), 10, 64) // a malformed header yields 0: spans lose their parent, nothing worse
	return uintptr(n)
}
