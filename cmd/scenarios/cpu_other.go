//go:build !unix

package main

// cpuSeconds reports 0 where getrusage does not exist.
func cpuSeconds() float64 { return 0 }
