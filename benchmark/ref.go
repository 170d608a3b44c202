// The host-speed reference. The baseline host is a small VM on shared
// hardware whose CPUs execute the same code up to 1.7 times slower for
// minutes at a time (README, "What the host does to a wall-clock
// number"), so a wall-clock reading says more about the neighbours than
// about the commit. Between the passes of every round the harness
// therefore runs two frozen kernels for a few milliseconds on every
// CPU, and each wall-clock metric is reported at the speed the host
// would have had at refNominal: a time is multiplied by the measured
// relative speed, a rate divided by it.
//
// The kernels allocate nothing in their loops, so the collector — whose
// work depends on the heap of the program under test — does not run on
// their account, and they call no code of the repository: a commit
// cannot move them.

package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// The two kernels, chosen so that together they slow with a busy
// neighbour the way the router's own mix does: a sort of 2,048 ints
// (branchy integer work in the L1 cache; it slows less than the router,
// log-log slope 1.4–1.9 against events/s) and a multiply-add scan of
// 1 MiB of float64 (memory in the L2 cache; it slows more, slope
// 0.7–0.8); against their geometric mean the slopes were 0.75–1.15.
// README has the measurements and the kernels that were dropped.
const (
	refSort = iota
	refDot
	refKernels
)

var refNames = [refKernels]string{"sort", "dot"}

// refNominal is what one CPU of the baseline host does per second of
// each kernel in the state it is most often in. It only fixes the scale
// the metrics are reported at; changing it invalidates every baseline.
var refNominal = [refKernels]float64{
	refSort: 11000, // sorts
	refDot:  6500,  // scans
}

// refCPU is one CPU's private working set.
type refCPU struct {
	src, buf []int
	vec      []float64
	sink     float64
}

// reference measures the host's speed relative to refNominal.
type reference struct {
	per    time.Duration // per kernel per slice
	cpus   []*refCPU
	speeds []float64             // every slice's result
	rates  [][refKernels]float64 // and its per-kernel rates, mean over the CPUs
}

func newReference(cpus int, per time.Duration) *reference {
	r := &reference{per: per}
	for i := 0; i < cpus; i++ {
		c := &refCPU{
			src: rand.New(rand.NewSource(7)).Perm(2048),
			buf: make([]int, 2048),
			vec: make([]float64, 1<<17),
		}
		for j := range c.vec {
			c.vec[j] = float64(j%97) * 0.5
		}
		r.cpus = append(r.cpus, c)
	}
	return r
}

// timed repeats step until d has passed and returns steps per second.
func timed(d time.Duration, step func()) float64 {
	start := time.Now()
	n := 0
	for time.Since(start) < d {
		step()
		n++
	}
	return float64(n) / time.Since(start).Seconds()
}

func (c *refCPU) run(k int, d time.Duration) float64 {
	if k == refSort {
		return timed(d, func() {
			copy(c.buf, c.src)
			sort.Ints(c.buf)
		})
	}
	return timed(d, func() {
		var sum float64
		for j := 0; j+16 <= len(c.vec); j += 16 {
			row := c.vec[j : j+16]
			var acc float64
			for x := 0; x < 16; x++ {
				acc += row[x] * row[15-x]
			}
			if acc > 0 {
				sum += acc
			}
		}
		c.sink += sum
	})
}

// slice runs every kernel on every CPU at once and returns the host's
// speed relative to refNominal: the geometric mean over the kernels of
// the CPUs' mean rate.
func (r *reference) slice() float64 {
	rates := make([][refKernels]float64, len(r.cpus))
	var wg sync.WaitGroup
	for i, c := range r.cpus {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < refKernels; k++ {
				rates[i][k] = c.run(k, r.per)
			}
		}()
	}
	wg.Wait()
	var mean [refKernels]float64
	logSpeed := 0.0
	for k := 0; k < refKernels; k++ {
		for i := range rates {
			mean[k] += rates[i][k] / float64(len(rates))
		}
		logSpeed += math.Log(mean[k]/refNominal[k]) / refKernels
	}
	speed := math.Exp(logSpeed)
	r.speeds = append(r.speeds, speed)
	r.rates = append(r.rates, mean)
	return speed
}

// kernelMedians is the median rate of each kernel over every slice.
func (r *reference) kernelMedians() [refKernels]float64 {
	var out [refKernels]float64
	for k := range out {
		xs := make([]float64, len(r.rates))
		for i := range r.rates {
			xs[i] = r.rates[i][k]
		}
		out[k] = median(xs)
	}
	return out
}
