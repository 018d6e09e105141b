package main

// goid returns a value that identifies the calling goroutine for as long as
// it lives: the address of its runtime g. The tracer needs one on every span
// to find the enclosing span on the same goroutine, and the engine's public
// seams carry no context to pass one through; parsing runtime.Stack costs
// microseconds per call, which at five spans per Get would be most of the
// operation being measured.
func goid() uintptr
