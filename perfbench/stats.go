package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile.
// A tail percentile read off fewer samples than this is one or two
// outliers, not a distribution.
const minTail = 10

// tailSamples is how many of n samples lie strictly beyond the p-th
// percentile under the nearest-rank rule percentile uses.
func tailSamples(n int, p float64) int {
	return n - rank(n, p)
}

// rank is the 1-based nearest-rank position of the p-th percentile of
// n samples.
func rank(n int, p float64) int {
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// percentile returns the nearest-rank p-th percentile of xs (which it
// sorts), or an error when fewer than minTail samples lie beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	if tailSamples(len(xs), p) < minTail {
		return 0, fmt.Errorf("p%g of %d samples has fewer than %d samples beyond it", p, len(xs), minTail)
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), p)-1], nil
}

// median of a non-empty sample (the mean of the middle two for even n).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (ru_maxrss, KiB on
// Linux) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// rssKB is the process's current resident set in KiB, read from
// /proc/self/statm (0 where that file does not exist).
func rssKB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(b), &size, &resident); err != nil {
		return 0
	}
	return float64(resident*int64(os.Getpagesize())) / 1024
}

// goCounters is a snapshot of the Go runtime's allocation and CPU
// accounting, for per-job allocation and GC-share deltas.
type goCounters struct {
	mallocs, bytes uint64
	gcCPU, allCPU  float64
}

// since is the change in the counters from an earlier snapshot.
func (c goCounters) since(earlier goCounters) goCounters {
	return goCounters{c.mallocs - earlier.mallocs, c.bytes - earlier.bytes, c.gcCPU - earlier.gcCPU, c.allCPU - earlier.allCPU}
}

// plus sums two counter deltas.
func (c goCounters) plus(d goCounters) goCounters {
	return goCounters{c.mallocs + d.mallocs, c.bytes + d.bytes, c.gcCPU + d.gcCPU, c.allCPU + d.allCPU}
}

func readGoCounters() goCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	c := goCounters{mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		c.allCPU = samples[1].Value.Float64()
	}
	return c
}

// host is the provenance every result record carries, so records from
// different machines or toolchains are never compared as one series.
type host struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
}

func hostInfo() host {
	h := host{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPUModel: "unknown"}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			h.CPUModel = strings.TrimSpace(v)
			break
		}
	}
	return h
}

// settledRSSKB is the resident set after a collection that returns
// freed memory to the OS: what the process retains, not what it has
// yet to scavenge.
func settledRSSKB() float64 {
	debug.FreeOSMemory()
	return rssKB()
}

// stealSeconds is the CPU time the hypervisor has withheld from this
// machine so far, from the steal column of /proc/stat (0 where that is
// unavailable).
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / clockTicks
}

// clockTicks is USER_HZ, the unit of /proc/stat, on Linux.
const clockTicks = 100
