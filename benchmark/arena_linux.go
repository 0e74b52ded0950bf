package main

import "syscall"

// bodyArena returns an empty byte slice with capacity n that lives outside
// the Go heap. Server and generator share one process; were the request
// bodies (up to 90 MB) on the heap, they would raise the collector's target
// and the server's garbage would be collected far less often than in a real
// deployment. The mapping lives until the process exits.
func bodyArena(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]byte, 0, n)
	}
	return b[:0]
}
