package main

import (
	"syscall"
	"unsafe"
)

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPU returns the CPU time, in nanoseconds, used so far by the calling
// OS thread. The kernel does not charge a thread for time its virtual CPU
// spent stolen by the hypervisor, so this clock stays steady on shared
// machines where wall time does not.
func threadCPU() int64 {
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// processCPU returns the CPU time, in nanoseconds, used so far by every
// thread of the process.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
