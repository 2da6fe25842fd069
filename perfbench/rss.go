package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// rssSampler tracks the process's peak resident memory while a
// workload runs, by reading /proc/self/statm every few milliseconds.
type rssSampler struct {
	stop  chan struct{}
	done  sync.WaitGroup
	peak  int64 // bytes; written by the sampling goroutine until stopped
	steal cpuTicks
}

// startRSS returns memory freed during set-up to the OS (so the peak
// reflects the workload, not set-up garbage) and starts sampling.
func startRSS() *rssSampler {
	runtime.GC()
	debug.FreeOSMemory()
	s := &rssSampler{stop: make(chan struct{}), steal: readCPUTicks()}
	s.peak = residentBytes()
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.peak = max(s.peak, residentBytes())
			}
		}
	}()
	return s
}

// peakMB stops sampling and returns the peak in MB (2^20 bytes). It
// also records in the report the share of the machine's CPU time the
// hypervisor stole meanwhile, which explains run-to-run noise.
func (s *rssSampler) peakMB(r *report) float64 {
	close(s.stop)
	s.done.Wait()
	s.peak = max(s.peak, residentBytes())
	r.Extra["cpu_steal_share"] = s.steal.stealSince()
	return float64(s.peak) / (1 << 20)
}

// cpuTicks is the machine-wide CPU time from /proc/stat, in ticks.
type cpuTicks struct{ total, steal uint64 }

// stealSince is the share of the machine's CPU time the hypervisor
// stole since t (0 where /proc/stat is absent or no tick passed).
func (t cpuTicks) stealSince() float64 {
	now := readCPUTicks()
	if now.total <= t.total {
		return 0
	}
	return float64(now.steal-t.steal) / float64(now.total-t.total)
}

// cpuMeter measures the process's CPU time over a window, less the share
// of it the hypervisor stole meanwhile. The machine-wide steal share
// stands in for the process's own, which Linux does not report.
type cpuMeter struct {
	cpu   time.Duration
	ticks cpuTicks
}

func startCPU() cpuMeter { return cpuMeter{cpu: processCPU(), ticks: readCPUTicks()} }

// used returns the process CPU time since start, less the stolen share.
func (m cpuMeter) used() time.Duration {
	return unsteal(processCPU()-m.cpu, m.ticks.stealSince())
}

// unsteal takes a steal share off a CPU time.
func unsteal(cpu time.Duration, steal float64) time.Duration {
	return time.Duration(float64(cpu) * (1 - steal))
}

func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	var t cpuTicks
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		t.total += v
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			t.steal = v
		}
	}
	return t
}

// residentBytes reads the resident set size (0 where /proc is absent).
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// memDelta is the allocation and GC activity between two reads.
type memDelta struct {
	before runtime.MemStats
}

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

// read returns bytes allocated, objects allocated and total GC pause
// since start.
func (m *memDelta) read() (allocBytes, mallocs uint64, gcPause time.Duration) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return now.TotalAlloc - m.before.TotalAlloc, now.Mallocs - m.before.Mallocs,
		time.Duration(now.PauseTotalNs - m.before.PauseTotalNs)
}

// processCPU is the CPU time the process has used so far, user plus
// system, over all its threads. On a virtual machine it includes time
// the hypervisor stole from a vCPU while it ran the process: Linux bills
// that to the running task.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
