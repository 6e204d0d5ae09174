package main

import (
	"syscall"
	"time"
)

// cpuTime returns the CPU time (user + system) this process has used so
// far. Unlike wall time it leaves out time the process waited for a CPU and
// time the host stole from a virtual CPU; it still moves with the speed of
// the CPU it ran on, which the reference clock (refclock.go) divides out.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
