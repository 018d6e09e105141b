// Command b calls into package a the ways that count as a caller.
package main

import "a"

func main() {
	a.Used()
	f := a.T{}.ValueOnly
	f()
	var err error = a.T{}
	_ = err
	_ = a.Box[int]{}.Get()
}
