//go:build !linux

package main

import (
	"errors"
	"runtime"
)

// pin confines the process to one P; CPU affinity is Linux-only.
func pin(int) (int, error) {
	runtime.GOMAXPROCS(1)
	return -1, errors.New("CPU pinning is not implemented on " + runtime.GOOS)
}
