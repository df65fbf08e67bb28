package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of the raw samples by
// linear interpolation between order statistics, the same rule as
// Python's statistics.quantiles with method "inclusive". The input is not
// modified. An empty input yields NaN.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is percentile(samples, 0.5).
func median(samples []float64) float64 { return percentile(samples, 0.5) }

func maxOf(samples []float64) float64 {
	m := math.Inf(-1)
	for _, v := range samples {
		m = math.Max(m, v)
	}
	return m
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	t := 0.0
	for _, v := range samples {
		t += v
	}
	return t / float64(len(samples))
}

// interval is a closed-open time span in nanoseconds.
type interval struct{ start, end int64 }

// covered returns how much of [within.start, within.end) the union of
// spans covers. Overlapping spans count once, and the parts of a span
// outside within are clipped.
func covered(within interval, spans []interval) int64 {
	var clipped []interval
	for _, s := range spans {
		if s.start < within.start {
			s.start = within.start
		}
		if s.end > within.end {
			s.end = within.end
		}
		if s.end > s.start {
			clipped = append(clipped, s)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	cur := interval{start: -1, end: -1}
	for _, s := range clipped {
		if s.start > cur.end {
			total += cur.end - cur.start
			cur = s
			continue
		}
		if s.end > cur.end {
			cur.end = s.end
		}
	}
	return total + cur.end - cur.start
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent interval, children []interval) int64 {
	return parent.end - parent.start - covered(parent, children)
}

// rung is one ladder step's outcome.
type rung struct {
	Rate float64
	Pass bool
	Note string
}

// ladderRate is rate number k of the fixed ladder: base·2^(k/perDoubling).
func ladderRate(base float64, perDoubling, k int) float64 {
	return base * math.Pow(2, float64(k)/float64(perDoubling))
}

// searchLadder walks the fixed ladder coarse-then-fine: it probes every
// coarse-th rung from the bottom until one fails (or maxK is passed),
// then bisects the fine rungs between the last coarse pass and the first
// coarse fail. A rung that fails is probed once more and fails only if
// that fails too, so one host stall does not end the climb. probe runs
// one rung and reports its outcome.
func searchLadder(base float64, perDoubling, coarse, maxK int, probe func(rate float64) rung) []rung {
	var tried []rung
	run := func(k int) bool {
		for attempt := 0; attempt < 2; attempt++ {
			r := probe(ladderRate(base, perDoubling, k))
			tried = append(tried, r)
			if r.Pass {
				return true
			}
		}
		return false
	}
	lastPass, firstFail := -1, -1
	for k := 0; k <= maxK; k += coarse {
		if !run(k) {
			firstFail = k
			break
		}
		lastPass = k
	}
	if lastPass < 0 || firstFail < 0 {
		return tried
	}
	lo, hi := lastPass, firstFail
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if run(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return tried
}

// maxPassingRate is the highest passing rate below the lowest rate that
// failed every time it was probed: a pass above such a rate is treated as
// noise, not capacity. It returns 0 when no rung passed.
func maxPassingRate(rungs []rung) float64 {
	passed := map[float64]bool{}
	for _, r := range rungs {
		if r.Pass {
			passed[r.Rate] = true
		}
	}
	lowestFail := math.Inf(1)
	for _, r := range rungs {
		if !passed[r.Rate] && r.Rate < lowestFail {
			lowestFail = r.Rate
		}
	}
	best := 0.0
	for _, r := range rungs {
		if r.Pass && r.Rate < lowestFail && r.Rate > best {
			best = r.Rate
		}
	}
	return best
}

// freshTracker stamps ingested events as servable. Events are added in
// journal order with the offset just past their record and the instant
// their freshness is timed from; once a replica serves a generation
// covering offset x, every event with offset ≤ x becomes fresh at that
// instant. Safe for concurrent use.
type freshTracker struct {
	mu      sync.Mutex
	offs    []uint64
	from    []time.Time
	fresh   []time.Duration // time from from to servable; <0 while pending
	stamped []time.Time
	next    int // first event not yet stamped

	// covers lists every cover call in order. An event can be covered
	// before it is added (the publish and the fetch raced ahead of the
	// sender recording it); add stamps it from here.
	covers []coverMark
}

type coverMark struct {
	upTo uint64
	at   time.Time
}

// add records one event; offsets must not decrease.
func (f *freshTracker) add(off uint64, from time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.offs = append(f.offs, off)
	f.from = append(f.from, from)
	f.fresh = append(f.fresh, -1)
	f.stamped = append(f.stamped, time.Time{})
	if k := sort.Search(len(f.covers), func(k int) bool { return f.covers[k].upTo >= off }); k < len(f.covers) {
		f.stampLocked(f.covers[k].at)
	}
}

// cover stamps every pending event with offset ≤ upTo as servable at at
// and returns how many it stamped. Covers must not go backwards.
func (f *freshTracker) cover(upTo uint64, at time.Time) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.covers = append(f.covers, coverMark{upTo, at})
	n := 0
	for f.next < len(f.offs) && f.offs[f.next] <= upTo {
		f.stampLocked(at)
		n++
	}
	return n
}

func (f *freshTracker) stampLocked(at time.Time) {
	f.fresh[f.next] = at.Sub(f.from[f.next])
	f.stamped[f.next] = at
	f.next++
}

// pending is the number of added events not yet stamped.
func (f *freshTracker) pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.offs) - f.next
}

// freshMs returns the freshness of events [from, to) in milliseconds;
// unstamped events are skipped and counted in missing.
func (f *freshTracker) freshMs(from, to int) (ms []float64, missing int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := from; i < to && i < len(f.fresh); i++ {
		if f.fresh[i] < 0 {
			missing++
			continue
		}
		ms = append(ms, float64(f.fresh[i])/1e6)
	}
	return ms, missing
}

// countBetween is the number of added events with offset in (lo, hi].
func (f *freshTracker) countBetween(lo, hi uint64) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	a := sort.Search(len(f.offs), func(i int) bool { return f.offs[i] > lo })
	b := sort.Search(len(f.offs), func(i int) bool { return f.offs[i] > hi })
	return b - a
}

// event returns event i's origin, offset and stamp (zero while pending).
func (f *freshTracker) event(i int) (from time.Time, off uint64, stamped time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.from[i], f.offs[i], f.stamped[i]
}

func (f *freshTracker) size() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.offs)
}
