// Sample statistics and process-level counters.

package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// base anchors the harness's monotonic clock; payload send stamps and
// span times are nanoseconds since it.
var base = time.Now()

func nanos() int64 { return int64(time.Since(base)) }

// quantile returns the q-quantile of sorted by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// bestQuarter is the mean of the best quarter of xs (the highest when
// higher is better, else the lowest). Interference from other tenants
// of a shared host only ever slows a round down, so this is what the
// rounds the host left alone looked like. It is printed as a diagnostic
// and gates nothing: a longer slow regime would not move it.
func bestQuarter(xs []float64, higher bool) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := (len(s) + 3) / 4
	if higher {
		s = s[len(s)-n:]
	} else {
		s = s[:n]
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// timing summarises one set of durations the way every timing in this
// benchmark is reported: the median, and the highest percentile that
// still has at least ten samples beyond it, with the sample count.
type timing struct {
	N      int
	Mean   float64 // of all but the slowest 5 %: no host stall and no churn step, however long, can move it
	P50    float64
	P99    float64
	Tail   float64 // value at the tail percentile
	TailAt float64 // which percentile that is, e.g. 0.999
}

func summarize(ns []int64) timing {
	if len(ns) == 0 {
		return timing{}
	}
	s := make([]float64, len(ns))
	for i, v := range ns {
		s[i] = float64(v)
	}
	sort.Float64s(s)
	t := timing{N: len(s), P50: quantile(s, 0.5), P99: quantile(s, 0.99)}
	kept := s[:len(s)-len(s)/20]
	for _, v := range kept {
		t.Mean += v / float64(len(kept))
	}
	if len(s) > 10 {
		idx := len(s) - 11
		t.Tail, t.TailAt = s[idx], float64(idx+1)/float64(len(s))
	} else {
		t.Tail, t.TailAt = s[len(s)-1], 1
	}
	return t
}

func (t timing) String() string {
	return fmt.Sprintf("mean=%.1fus p50=%.1fus p%.4g=%.1fus n=%d", t.Mean/1e3, t.P50/1e3, t.TailAt*100, t.Tail/1e3, t.N)
}

// spread is the interquartile range as a share of the median — the
// run-to-run noise measure the bounds are set against. The quartiles
// are the exclusive-method ones Python's statistics.quantiles(n=4)
// gives, so the figure matches the driver's.
func spread(xs []float64) (q1, med, q3, rel float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(len(s)-1) {
			return s[len(s)-1]
		}
		lo := int(pos)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	q1, med, q3 = at(0.25), at(0.5), at(0.75)
	if med != 0 {
		rel = (q3 - q1) / med
	}
	return
}

// procSnap is a point-in-time reading of the process counters a phase
// is charged against.
type procSnap struct {
	at         time.Time
	cpu        time.Duration // user + system
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
	heapInuse  uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set (ru_maxrss is in KB on
// Linux).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// snapProc reads the counters. ReadMemStats stops the world, so it is
// only ever called outside a phase's clock.
func snapProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		at:         time.Now(),
		cpu:        cpuTime(),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCycles:   ms.NumGC,
		gcPause:    time.Duration(ms.PauseTotalNs),
		heapInuse:  ms.HeapInuse,
	}
}
