package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileFromRawSamples(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.9, 4.6}, {0.99, 4.96},
	} {
		if got := percentile(s, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if s[0] != 5 {
		t.Errorf("percentile reordered its input: %v", s)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample p99 = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
	// A failure counted as +Inf lands in the tail, not the median.
	if got := percentile([]float64{1, 2, 3, math.Inf(1)}, 0.5); got != 2.5 {
		t.Errorf("median with one failure = %v, want 2.5", got)
	}
	if got := percentile([]float64{1, 2, 3, math.Inf(1)}, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with one failure in four = %v, want +Inf", got)
	}
}

func TestSelfTimeFromSpans(t *testing.T) {
	parent := interval{0, 100}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []interval{{10, 30}}, 80},
		{"disjoint children", []interval{{10, 20}, {50, 70}}, 70},
		{"overlapping children count once", []interval{{10, 40}, {30, 60}}, 50},
		{"nested children", []interval{{10, 90}, {20, 30}}, 20},
		{"children clipped to the parent", []interval{{-20, 10}, {95, 130}}, 85},
		{"child outside the parent", []interval{{100, 120}}, 100},
		{"touching children", []interval{{10, 20}, {20, 30}}, 80},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestLadderSearchAndMaxRate(t *testing.T) {
	// Capacity between rungs 13 and 14: coarse rungs 0, 8 pass, 16 fails
	// twice, then bisection settles on 13.
	var probed []int
	capacity := ladderRate(100, 16, 13)
	rungs := searchLadder(100, 16, 8, 96, func(rate float64) rung {
		k := int(math.Round(16 * math.Log2(rate/100)))
		probed = append(probed, k)
		return rung{Rate: rate, Pass: rate <= capacity*1.0001}
	})
	want := []int{0, 8, 16, 16, 12, 14, 14, 13}
	if len(probed) != len(want) {
		t.Fatalf("probed rungs %v, want %v", probed, want)
	}
	for i := range want {
		if probed[i] != want[i] {
			t.Fatalf("probed rungs %v, want %v", probed, want)
		}
	}
	if got := maxPassingRate(rungs); math.Abs(got-capacity) > 1e-9 {
		t.Errorf("max rate %v, want %v", got, capacity)
	}

	// A rung that fails once and passes on the retry counts as passed.
	flaky := 0
	rungs = searchLadder(100, 16, 8, 16, func(rate float64) rung {
		flaky++
		return rung{Rate: rate, Pass: flaky != 2}
	})
	if got := maxPassingRate(rungs); got != 200 || len(rungs) != 4 {
		t.Errorf("one transient failure: max rate %v after %d probes, want 200 after 4", got, len(rungs))
	}

	// A pass above a failing rung is noise, not capacity.
	noisy := []rung{{Rate: 100, Pass: true}, {Rate: 200, Pass: false}, {Rate: 150, Pass: true}, {Rate: 300, Pass: true}}
	if got := maxPassingRate(noisy); got != 150 {
		t.Errorf("max rate with a stray pass = %v, want 150", got)
	}
	if got := maxPassingRate([]rung{{Rate: 100, Pass: false}}); got != 0 {
		t.Errorf("max rate with no pass = %v, want 0", got)
	}
	// Everything passes: the top of the ladder is the answer.
	all := searchLadder(100, 16, 8, 16, func(rate float64) rung { return rung{Rate: rate, Pass: true} })
	if len(all) != 3 || maxPassingRate(all) != 200 {
		t.Errorf("all-pass ladder probed %d rungs with max %v, want 3 rungs and 200", len(all), maxPassingRate(all))
	}
}

func TestFreshnessStampedByJournalOffset(t *testing.T) {
	base := time.Unix(1000, 0)
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	var f freshTracker
	f.add(10, base)
	f.add(20, base.Add(ms(1)))
	f.add(30, base.Add(ms(2)))
	if got := f.cover(20, base.Add(ms(50))); got != 2 {
		t.Fatalf("cover(20) stamped %d events, want 2", got)
	}
	if f.pending() != 1 {
		t.Fatalf("pending %d, want 1", f.pending())
	}
	// A generation covering nothing new stamps nothing.
	if got := f.cover(25, base.Add(ms(60))); got != 0 {
		t.Fatalf("cover(25) stamped %d events, want 0", got)
	}
	f.cover(40, base.Add(ms(80)))
	// An event the replica already serves when it is recorded takes the
	// stamp of the first generation that covered it.
	f.add(40, base.Add(ms(3)))
	f.add(50, base.Add(ms(4)))
	fresh, missing := f.freshMs(0, 5)
	want := []float64{50, 49, 78, 77}
	if missing != 1 || len(fresh) != len(want) {
		t.Fatalf("fresh %v (missing %d), want %v and 1 missing", fresh, missing, want)
	}
	for i := range want {
		if fresh[i] != want[i] {
			t.Fatalf("fresh %v, want %v", fresh, want)
		}
	}
	if got := f.countBetween(10, 40); got != 3 {
		t.Errorf("events in (10, 40] = %d, want 3", got)
	}
}

func TestSummarizeChargesBacklogNotTimerLateness(t *testing.T) {
	ms := int64(time.Millisecond)
	var samples []sample
	for i := 0; i < 100; i++ {
		due := int64(i) * ms
		samples = append(samples, sample{due: due, sent: due, done: due + ms, slept: true})
	}
	// An idle client that overslept by 2ms: lateness, not latency.
	samples[50].sent += 2 * ms
	samples[50].done += 2 * ms
	// A busy client that sent 5ms past due: the wait is latency.
	samples[99] = sample{due: 99 * ms, sent: 104 * ms, done: 105 * ms}
	s := summarize(samples)
	if s.sent != 100 || s.ok != 100 || s.failed != 0 {
		t.Fatalf("counts %+v", s)
	}
	if s.max != 6 || s.p50 != 1 {
		t.Errorf("latency max %v p50 %v, want 6 and 1", s.max, s.p50)
	}
	if s.lateMax != 2 || s.backlogEnd != 5 {
		t.Errorf("generator lateness %v and backlog at end %v, want 2 and 5", s.lateMax, s.backlogEnd)
	}
	samples[0].err = true
	if s := summarize(samples); s.failed != 1 || !math.IsInf(s.max, 1) {
		t.Errorf("a failed operation must count as infinitely slow: %+v", s)
	}
}

func TestWindowedTailIgnoresOneBadWindow(t *testing.T) {
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = 1
	}
	for i := 0; i < 100; i++ {
		xs[i] = 100 // a stall in the first window
	}
	if got := windowed(xs, 0.99); got != 1 {
		t.Errorf("windowed p99 = %v, want 1", got)
	}
	if got := windowed(xs[:100], 0.99); got != 100 {
		t.Errorf("p99 of too few samples for windows = %v, want the plain p99 100", got)
	}
}
