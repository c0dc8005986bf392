//go:build !amd64

package dsp

// forEachBody calls run once for the Go bodies, the only ones off amd64.
func forEachBody(run func(body string)) { run("go") }
