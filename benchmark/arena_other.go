//go:build !linux

package main

// bodyArena returns an empty byte slice with capacity n; off Linux the
// bodies stay on the Go heap.
func bodyArena(n int) []byte { return make([]byte, 0, n) }
