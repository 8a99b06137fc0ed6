package main

import (
	"runtime"
	rtm "runtime/metrics"
	"syscall"
	"time"
)

// procSample is one reading of the process's own cost counters.
type procSample struct {
	cpu     time.Duration // user + system CPU of this process
	mallocs uint64
	bytes   uint64
	gcCPU   float64 // seconds of CPU the collector used
	allCPU  float64 // seconds of CPU available to the process
}

var procMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// cpuTime is the user plus system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampleProc reads CPU time from getrusage and allocation counts from the
// runtime. Each benchmark run is its own process, so these belong to it.
func sampleProc() procSample {
	s := procSample{cpu: cpuTime()}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.bytes = ms.Mallocs, ms.TotalAlloc
	samples := make([]rtm.Sample, len(procMetricNames))
	for i, name := range procMetricNames {
		samples[i].Name = name
	}
	rtm.Read(samples)
	if samples[0].Value.Kind() == rtm.KindFloat64 {
		s.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == rtm.KindFloat64 {
		s.allCPU = samples[1].Value.Float64()
	}
	return s
}

// peakRSSMB is the process's high-water resident set, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// procCost is what one measured window cost, per job.
type procCost struct {
	CPUPerJobUS  float64
	AllocsPerJob float64
	BytesPerJob  float64
	GCShare      float64
}

func costBetween(a, b procSample, jobs int) procCost {
	n := float64(max(jobs, 1))
	c := procCost{
		CPUPerJobUS:  float64(b.cpu-a.cpu) / 1e3 / n,
		AllocsPerJob: float64(b.mallocs-a.mallocs) / n,
		BytesPerJob:  float64(b.bytes-a.bytes) / n,
	}
	if all := b.allCPU - a.allCPU; all > 0 {
		c.GCShare = (b.gcCPU - a.gcCPU) / all
	}
	return c
}

// allocsDuring runs fn and returns the heap allocations it made. The probes
// use it; nothing else may run meanwhile for the count to be fn's own.
func allocsDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
