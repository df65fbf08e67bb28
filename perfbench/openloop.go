package main

import (
	"math"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is one open-loop operation. Times are nanoseconds since the
// loop's start: due is when the schedule says it should go out, sent when
// a client actually sent it, done when it completed. slept marks an
// operation whose client was idle and slept until it was due.
type sample struct {
	op    int
	due   int64
	sent  int64
	done  int64
	slept bool
	err   bool
}

// origin is where the operation's latency is timed from. An operation
// that waited for a busy client is timed from its due time, so a stall is
// charged to every operation it delays. One whose client was idle is
// timed from when the client woke: a sleep on a loaded host overshoots by
// about a millisecond, and that is the generator's lateness (reported as
// such), not the system's latency.
func (s sample) origin() int64 {
	if s.slept {
		return s.sent
	}
	return s.due
}

func (s sample) latencyMs() float64 { return float64(s.done-s.origin()) / 1e6 }

// openLoop issues n operations on a fixed schedule of rate per second
// from workers client goroutines. Operation i is due at start+i/rate; a
// free client takes the next index, sleeps until it is due and runs
// do(i, from), where from is the instant the operation's latency is timed
// from (see origin). A client that falls behind sends late rather than
// skipping. op(i) labels sample i.
func openLoop(n int, rate float64, workers int, op func(i int) int, do func(i int, from time.Time) error) []sample {
	samples := make([]sample, n)
	interval := float64(time.Second) / rate
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				s := &samples[i]
				s.op, s.due = op(i), int64(float64(i)*interval)
				if d := time.Duration(s.due - int64(time.Since(start))); d > 0 {
					time.Sleep(d)
					s.slept = true
				}
				s.sent = int64(time.Since(start))
				s.err = do(i, start.Add(time.Duration(s.origin()))) != nil
				s.done = int64(time.Since(start))
			}
		}()
	}
	wg.Wait()
	return samples
}

// loadSummary digests a set of samples. Latency percentiles count a
// failed operation as infinitely slow, so a failure always misses a
// latency limit.
type loadSummary struct {
	sent, ok, failed   int
	p50, p90, p99, max float64 // latency, ms
	lateP99, lateMax   float64 // generator lateness of operations whose client slept, ms
	backlogEnd         float64 // worst send delay past due over the last tenth of the schedule, ms
}

// maxWindows bounds how many consecutive windows a phase's tail
// percentiles are taken over; the reported value is their median, so one
// host stall in one window does not decide the run.
const maxWindows = 9

func summarize(samples []sample) loadSummary {
	var s loadSummary
	if len(samples) == 0 {
		return s
	}
	lat := make([]float64, 0, len(samples))
	var late []float64
	for _, x := range samples {
		s.sent++
		if x.err {
			s.failed++
			lat = append(lat, math.Inf(1))
		} else {
			s.ok++
			lat = append(lat, x.latencyMs())
		}
		if x.slept {
			late = append(late, float64(x.sent-x.due)/1e6)
		}
	}
	s.p50, s.p90, s.p99, s.max = percentile(lat, 0.5), windowed(lat, 0.9), windowed(lat, 0.99), maxOf(lat)
	if len(late) > 0 {
		s.lateP99, s.lateMax = percentile(late, 0.99), maxOf(late)
	}
	s.backlogEnd = 0
	for _, x := range samples[len(samples)-len(samples)/10-1:] {
		s.backlogEnd = math.Max(s.backlogEnd, float64(x.sent-x.due)/1e6)
	}
	return s
}

// windowed is the median of the p-quantiles of up to maxWindows
// consecutive windows of xs, each big enough to have ten samples beyond
// its p99 (the p-quantile of all of xs when two such windows do not fit).
func windowed(xs []float64, p float64) float64 {
	windows := min(maxWindows, len(xs)/1000)
	if windows < 2 {
		return percentile(xs, p)
	}
	per := len(xs) / windows
	var ps []float64
	for w := 0; w < windows; w++ {
		ps = append(ps, percentile(xs[w*per:(w+1)*per], p))
	}
	return median(ps)
}

// latenciesMs returns the latencies of the successful samples with the
// given op, or of all ops when op < 0.
func latenciesMs(samples []sample, op int) []float64 {
	var out []float64
	for _, x := range samples {
		if !x.err && (op < 0 || x.op == op) {
			out = append(out, x.latencyMs())
		}
	}
	return out
}

// cpuSeconds is the user and system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
