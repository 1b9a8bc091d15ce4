//go:build !linux

package main

import "time"

var clockStart = time.Now()

// threadCPU falls back to the monotonic wall clock where no per-thread CPU
// clock is wired up.
func threadCPU() int64 { return int64(time.Since(clockStart)) }

func processCPU() int64 { return threadCPU() }
