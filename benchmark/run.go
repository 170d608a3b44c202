// The gated run: set-up (timed), warm-up, the unloaded round-trip
// phase, the load phase in windows, and the registration phase. Every
// end-to-end metric comes from here, with tracing off.

package main

import (
	"context"
	"fmt"
	"runtime"
	"time"
)

// metric is one named reading. Names and units are fixed here and
// mirrored in BENCHMARK.json.
type metric struct {
	name  string
	unit  string
	value float64
}

// result is one run of one workload.
type result struct {
	workload  string
	seed      int64
	host      hostInfo
	metrics   []metric
	attempted uint64
	v         violations
	notes     []string // human-readable detail: sample counts, tails, per-window values
}

func (r *result) add(name, unit string, value float64) {
	r.metrics = append(r.metrics, metric{name, unit, value})
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// limit bounds one pass by time and, optionally, by event count.
type limit struct {
	dur    time.Duration
	events uint64
}

// plan sizes a run's phases. planFor derives it from --seconds; the
// smoke test sets event counts instead, so two runs of one seed publish
// exactly the same events.
type plan struct {
	calibrate time.Duration
	setups    int           // stand-ups per run; setup_s is their median
	warm      limit         // window = the workload's, untimed
	rounds    int           // the measured time is cut into this many rounds, each:
	ref       time.Duration // a slice of the host-speed reference, this long per kernel,
	rtt       limit         // an unloaded pass: window 1, single Publish,
	window    limit         // one load window,
	regSteps  int           // and, off the churn workload, this many idle churn steps

	// Traced run only.
	live       limit // load pass with spans on
	open       time.Duration
	single     limit // the partitions = 1 comparison pass
	walkEvents int
}

func planFor(seconds float64) plan {
	s := time.Duration(seconds * float64(time.Second))
	short := func(d, cap time.Duration) time.Duration {
		if d > cap {
			return cap
		}
		return d
	}
	// A round is short so that the reference slices on either side of it
	// see the host the round saw: the host's speed half a second apart
	// correlates 0.6, twenty seconds apart not at all.
	const rounds = 40
	return plan{
		calibrate:  short(s/10, time.Second),
		setups:     3,
		warm:       limit{dur: short(s/10, time.Second)},
		rounds:     rounds,
		ref:        s * 12 / 100 / rounds / refKernels,
		rtt:        limit{dur: s * 18 / 100 / rounds},
		window:     limit{dur: s * 70 / 100 / rounds},
		regSteps:   2,
		live:       limit{dur: s / 4},
		open:       s / 4,
		single:     limit{dur: s / 4},
		walkEvents: 2048,
	}
}

func (w workload) loadLoop(l limit) loopSpec {
	return loopSpec{window: w.window(), perCall: w.batch, dur: l.dur, events: l.events}
}

// runGated measures one workload with tracing off.
func runGated(ctx context.Context, w workload, seed int64, p plan) (*result, error) {
	res := &result{workload: w.name, seed: seed, host: captureHost(p.calibrate)}

	// Set-up several times: RSA key generation makes one stand-up's time
	// a lottery, and the median of a few is what a later PR is held to.
	// Every wall-clock reading below is taken between two slices of the
	// host-speed reference and reported at the reference's nominal speed.
	ref := newReference(res.host.NProc, p.ref)
	var b *bed
	var setups, setupsRaw []float64
	for i := 0; i < p.setups; i++ {
		if b != nil {
			b.close()
			runtime.GC() // each stand-up starts from the same heap, whatever the one before left behind
		}
		before := ref.slice()
		var err error
		if b, err = standUp(ctx, w, seed); err != nil {
			return nil, err
		}
		speed := (before + ref.slice()) / 2
		setupsRaw = append(setupsRaw, b.times.total.Seconds())
		setups = append(setups, b.times.total.Seconds()*speed)
	}
	defer b.close()
	res.notef("setup: %d stand-ups %.3f s as timed, %.3f s at nominal host speed; last: topology %.3f provision %.3f register(%d) %.3f attach %.3f",
		p.setups, setupsRaw, setups, b.times.topologyUp.Seconds(), b.times.provision.Seconds(), w.fillers,
		b.times.registerFiller.Seconds(), b.times.attach.Seconds())

	d := newDriver(b)
	fail := func(err error) (*result, error) {
		res.v = d.finish()
		res.attempted = d.attempted()
		res.notef("aborted: %v", err)
		return res, nil
	}
	if _, err := d.closedLoop(w.loadLoop(p.warm)); err != nil {
		return fail(err)
	}
	// The measured time is cut into rounds, each an unloaded round-trip
	// pass, a load window and (off the churn workload) a few idle churn
	// steps, so every metric samples the host's drift the same way. A
	// round's speed is the mean of the reference slices on either side.
	var evps, evpsRaw, cpu, sim, allocs, roundRTT, roundReg, blocked []float64
	rtts := make([]int64, 0, 1<<18) // every unloaded round trip of the run; sized so it never regrows
	var regs []int64                // every RegisterBulk round trip of the run
	var tail float64
	before := ref.slice()
	for i := 0; i < p.rounds; i++ {
		rtt, err := d.closedLoop(loopSpec{window: 1, perCall: 1, dur: p.rtt.dur, events: p.rtt.events})
		if err != nil {
			return fail(err)
		}
		roundLat := append([]int64(nil), d.lat...)
		d.regRTT = d.regRTT[:0]
		r, err := d.closedLoop(w.loadLoop(p.window))
		if err != nil {
			return fail(err)
		}
		if !w.churn {
			for j := 0; j < p.regSteps; j++ {
				d.churnStep()
			}
		}
		after := ref.slice()
		speed := (before + after) / 2
		before = after

		roundRTT = append(roundRTT, rtt.lat.P50/1e3*speed)
		rtts = appendScaled(rtts, roundLat, speed)
		evpsRaw = append(evpsRaw, r.eventsPerSec())
		evps = append(evps, r.eventsPerSec()/speed)
		cpu = append(cpu, r.cpuMicrosPerEvent()*speed)
		sim = append(sim, r.simMicrosPerEvent())
		allocs = append(allocs, r.allocsPerEvent())
		blocked = append(blocked, r.blocked.Seconds()/r.wall.Seconds())
		if r.lat.Tail > tail {
			tail = r.lat.Tail
		}
		roundReg = append(roundReg, summarize(d.regRTT).P50/1e3*speed)
		regs = appendScaled(regs, d.regRTT, speed)
	}
	rttAll, regAll := summarize(rtts), summarize(regs)
	res.notef("host speed relative to nominal, per reference slice: %.2f; median %.3f; kernels %v at a median of %.0f /s per CPU",
		ref.speeds, median(ref.speeds), refNames, ref.kernelMedians())
	res.notef("events_per_s as timed: median %.0f; per round: %.0f", median(evpsRaw), evpsRaw)
	res.notef("everything below is at nominal host speed")
	res.notef("rtt (window 1, Publish): %v; p50 per round: %.1f", rttAll, roundRTT)
	res.notef("events_per_s per round (window %d calls x %d events): %.0f", w.window(), w.batch, evps)
	res.notef("cpu_us_per_event per round: %.2f", cpu)
	res.notef("reg_rtt (RegisterBulk of %d): %v; p50 per round: %.0f", churnStepSubs, regAll, roundReg)
	res.notef("worst load-window tail %.2f ms; publisher blocked on the window %.2f of the time; Unsubscribe %v",
		tail/1e6, median(blocked), summarize(d.unsubRTT))
	// Diagnostic only: what the rounds the host left alone looked like.
	// A change that moves a median and not its best quarter has lengthened
	// the slow regime (wake-ups, hand-offs), not the work.
	res.notef("best quarter of the rounds: events_per_s %.0f, rtt p50 %.1f us, cpu_us_per_event %.2f, reg_rtt_p50_us %.0f",
		bestQuarter(evps, true), bestQuarter(roundRTT, false), bestQuarter(cpu, false), bestQuarter(roundReg, false))

	res.v = d.finish()
	res.attempted = d.attempted()
	res.add("events_per_s", "1/s", median(evps))
	res.add("rtt_mean_us", "us", rttAll.Mean/1e3)
	res.add("cpu_us_per_event", "us", median(cpu))
	res.add("sim_us_per_event", "sim_us", median(sim))
	res.add("allocs_per_event", "count", median(allocs))
	res.add("reg_rtt_p50_us", "us", regAll.P50/1e3)
	res.add("rss_peak_mb", "MB", maxRSSMB())
	res.add("setup_s", "s", median(setups))
	return res, nil
}

// appendScaled appends the durations ns, each multiplied by speed: what
// they would have read on a host at the reference's nominal speed.
func appendScaled(dst, ns []int64, speed float64) []int64 {
	for _, v := range ns {
		dst = append(dst, int64(float64(v)*speed))
	}
	return dst
}
