package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
)

// processCPU returns the process's user plus system CPU time in seconds.
// Unlike wall time it does not grow while the hypervisor runs another
// guest on this machine's CPUs.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// hostSteal returns the CPU time, in seconds summed over CPUs, that the
// hypervisor has stolen from this machine since boot (the steal column of
// /proc/stat; 0 where it is unavailable). A wall-time result measured
// while steal was high is slower than the code it measures.
func hostSteal() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}
