// Package vfstest stands for a package that exists to support tests: none
// of its functions needs a non-test caller.
package vfstest

func ForTests() {}
