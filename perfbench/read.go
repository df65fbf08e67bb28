package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/scenario"
)

// The read-routed workload's load shape.
const (
	// readNominalQPS is the nominal open-loop rate the latency metrics
	// are taken at.
	readNominalQPS = 500
	// readLimitMs is the p99 latency limit a ladder rung must meet.
	readLimitMs = 10
	// The ladder: rate k is readLadderBase·2^(k/readLadderPerDoubling),
	// probed every readLadderCoarse-th rung up to readLadderMaxK.
	readLadderBase        = 1000
	readLadderPerDoubling = 16
	readLadderCoarse      = 8
	readLadderMaxK        = 64
	// readRungShare is the share of the measuring time one ladder rate
	// is probed for.
	readRungShare = 0.025
	// readCheckSample is how many seeded reads are compared against a
	// full node after the load.
	readCheckSample = 300
)

func runReadRouted(r *run) error {
	var tr *tracer
	if r.trace {
		tr = newTracer()
	}
	opts := fleetOptions{shards: []int{0, 1}, withRouter: true, tracer: tr}
	f, err := setUpFleet(r, opts, func(f *fleet) error {
		// Warm the fleet's pages and connections with a short burst.
		reqs := genReads(400, r.seed^0x9e37, f.space(0, f.base.NumUsers))
		target := f.target(f.front.URL)
		for _, req := range reqs {
			if err := target.Do(req); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer f.close()
	workers := runtime.NumCPU()
	target := f.target(f.front.URL)
	sp := f.space(0, f.base.NumUsers)
	fmt.Printf("read-routed: %d users, |C|=|Z|=%d, %d shard-owning replicas behind the router, %d client goroutines\n",
		f.base.NumUsers, fleetComms, len(f.replicas), workers)

	// Nominal rate.
	nominalShare := 0.7
	if r.trace {
		nominalShare = 0.2
	}
	n := int(readNominalQPS * r.budget(nominalShare).Seconds())
	reqs := genReads(n, r.seed, sp)
	cpu0 := cpuSeconds()
	samples := openLoop(n, readNominalQPS, workers,
		func(i int) int { return int(reqs[i].Op) },
		func(i int, _ time.Time) error { return target.Do(reqs[i]) })
	cpuPerRead := (cpuSeconds() - cpu0) / float64(n)
	s := summarize(samples)
	r.attempted += s.sent
	r.failed += s.failed
	r.set("peak_rss_mb", peakRSSMB())
	r.setN("work_p50_ms", s.p50, s.sent)
	r.setN("work_p90_ms", s.p90, s.sent)
	r.setN("read_p90_ms", s.p90, s.sent)
	r.put("read_p50_ms", "ms", s.p50, s.sent)
	r.put("read_p99_ms", "ms", s.p99, s.sent)
	r.put("fail_share", "share", float64(s.failed)/float64(s.sent), s.sent)
	reportGen(r, s)
	for _, op := range readOps {
		lat := latenciesMs(samples, int(op))
		r.put("read_p50_ms."+op.String(), "ms", median(lat), len(lat))
	}

	if r.trace {
		if err := traceReads(r, f, tr, sp); err != nil {
			return err
		}
	} else {
		// The capacity the gate uses is CPU-normalized: the reads per
		// second nproc cores sustain at the nominal rate's CPU cost per
		// read (client, router and replicas together). The ladder's
		// highest rate meeting the latency limit is reported beside it;
		// on a shared host it moves with other tenants' load by up to 2x
		// between identical runs, too much to gate on.
		r.setN("max_rate_per_s", float64(runtime.NumCPU())/cpuPerRead, n)
		r.put("read_cpu_us_per_op", "us", cpuPerRead*1e6, n)
		// Ladder: the highest rate whose p99 stays within the limit with
		// no failed read and no growing backlog.
		seq := uint64(0)
		rungs := searchLadder(readLadderBase, readLadderPerDoubling, readLadderCoarse, readLadderMaxK, func(rate float64) rung {
			seq++
			n := int(rate * r.budget(readRungShare).Seconds())
			reqs := genReads(n, r.seed+seq*7919, sp)
			samples := openLoop(n, rate, workers,
				func(i int) int { return int(reqs[i].Op) },
				func(i int, _ time.Time) error { return target.Do(reqs[i]) })
			s := summarize(samples)
			r.attempted += s.sent
			r.failed += s.failed
			pass := s.failed == 0 && s.p99 <= readLimitMs && s.backlogEnd <= readLimitMs
			return rung{Rate: rate, Pass: pass,
				Note: fmt.Sprintf("p99 %.2fms, late at end %.2fms, failed %d of %d", s.p99, s.backlogEnd, s.failed, s.sent)}
		})
		printLadder("read", rungs)
		r.put("read_max_qps", "1/s", maxPassingRate(rungs), len(rungs))
	}

	// Output checks: a seeded sample of routed answers must be bit-equal
	// to a full node on the same generation, with no misroute.
	ref, err := f.reference(1)
	if err != nil {
		return err
	}
	defer ref.Close()
	mismatches := 0
	for _, req := range genReads(readCheckSample, r.seed+1, sp) {
		r.attempted++
		got, err := httpAnswer(f.client, f.front.URL, req)
		if err != nil {
			r.failed++
			mismatches++
			continue
		}
		want, err := engineAnswer(ref, req)
		if err != nil || !sameAnswer(got, want) {
			mismatches++
		}
	}
	r.check(mismatches == 0, "read-routed: %d of %d routed answers differ from a full node on generation 1", mismatches, readCheckSample)
	st := f.router.Stats()
	var replicaErrors uint64
	for _, rs := range st.Replicas {
		replicaErrors += rs.Errors
	}
	r.check(st.Misroutes == 0, "read-routed: the router saw %d misroutes", st.Misroutes)
	r.check(replicaErrors == 0, "read-routed: the router saw %d replica errors", replicaErrors)
	r.set("router.misroutes", float64(st.Misroutes))
	r.set("router.replica_errors", float64(replicaErrors))
	if sc := st.Endpoints["scatter"]; sc.Count > 0 {
		r.set("router.shared_scatter_ratio", float64(st.SharedScatters)/float64(sc.Count))
	}
	return nil
}

// reportGen records how well the open loop held its schedule.
func reportGen(r *run, s loadSummary) {
	r.set("gen.late_p99_ms", s.lateP99)
	r.set("gen.late_max_ms", s.lateMax)
	r.set("gen.sent", float64(s.sent))
	r.set("gen.ok", float64(s.ok))
	r.set("gen.failed", float64(s.failed))
}

func printLadder(what string, rungs []rung) {
	for _, rg := range rungs {
		verdict := "miss"
		if rg.Pass {
			verdict = "pass"
		}
		fmt.Printf("  %s ladder %8.1f/s  %s  %s\n", what, rg.Rate, verdict, rg.Note)
	}
}

// traceReads sends one read at a time, first untraced and then traced,
// replays the same reads in-process, and attributes each read's time to
// the loopback client (net), the router's own work and the replicas.
func traceReads(r *run, f *fleet, tr *tracer, sp querySpace) error {
	target := f.target(f.front.URL)
	reqs := genReads(20000, r.seed+2, sp)
	oneAtATime := func(n int, traced bool) ([]interval, error) {
		tr.on.Store(traced)
		defer tr.on.Store(false)
		var client []interval
		deadline := time.Now().Add(r.budget(0.3))
		for i := 0; i < len(reqs) && (n == 0 && time.Now().Before(deadline) || i < n); i++ {
			tr.cur.Store(int64(i))
			start := tr.now()
			err := target.Do(reqs[i])
			client = append(client, interval{start, tr.now()})
			r.attempted++
			if err != nil {
				r.failed++
				return nil, fmt.Errorf("read %d (%s): %w", i, reqs[i].Op, err)
			}
		}
		return client, nil
	}
	untraced, err := oneAtATime(0, false)
	if err != nil {
		return err
	}
	n := len(untraced)
	traced, err := oneAtATime(n, true)
	if err != nil {
		return err
	}
	spans := tr.take()

	// The same reads in-process on a full node: the engine's share.
	ref, err := f.reference(1)
	if err != nil {
		return err
	}
	defer ref.Close()
	engine := scenario.EngineTarget{Engine: ref}
	engineNs := make([]float64, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := engine.Do(reqs[i]); err != nil {
			return fmt.Errorf("in-process replay of read %d: %w", i, err)
		}
		engineNs[i] = float64(time.Since(t0))
	}

	routerSpan := make([]interval, n)
	replicaSpans := make([][]interval, n)
	for _, s := range spans {
		switch s.name {
		case "router":
			routerSpan[s.req] = s.iv
		case "replica":
			replicaSpans[s.req] = append(replicaSpans[s.req], s.iv)
		}
	}
	type opSums struct {
		n                                           int
		client, net, router, handler, engine, calls float64
	}
	sum := make(map[scenario.OpKind]*opSums)
	for _, op := range readOps {
		sum[op] = &opSums{}
	}
	var total, attributed, untracedTotal float64
	for i := 0; i < n; i++ {
		op := reqs[i].Op
		c := traced[i]
		rt := routerSpan[i]
		handler := float64(covered(rt, replicaSpans[i]))
		a := sum[op]
		a.n++
		a.client += float64(c.end - c.start)
		a.net += float64(selfTime(c, []interval{rt}))
		a.router += float64(selfTime(rt, replicaSpans[i]))
		a.handler += handler
		a.engine += engineNs[i]
		a.calls += float64(len(replicaSpans[i]))
		total += float64(c.end - c.start)
		attributed += float64(selfTime(c, []interval{rt})) + float64(selfTime(rt, replicaSpans[i])) + handler
		untracedTotal += float64(untraced[i].end - untraced[i].start)
	}
	us := func(ns float64, k int) float64 { return ns / float64(k) / 1e3 }
	for _, op := range readOps {
		a := sum[op]
		if a.n == 0 {
			continue
		}
		name := op.String()
		r.setN("serve.engine_us."+name, us(a.engine, a.n), a.n)
		r.setN("serve.handler_us."+name, us(a.handler, a.n), a.n)
		r.setN("serve.encode_us."+name, math.Max(0, us(a.handler-a.engine, a.n)), a.n)
		r.setN("serve.calls_per_read."+name, a.calls/float64(a.n), a.n)
		r.setN("router.self_us."+name, us(a.router, a.n), a.n)
		r.setN("net.self_us."+name, us(a.net, a.n), a.n)
		fmt.Printf("traced %-10s n=%-5d e2e %8.1fus = net %7.1f + router %7.1f + replicas %7.1f (engine %6.1f, %.2f calls/read)\n",
			name, a.n, us(a.client, a.n), us(a.net, a.n), us(a.router, a.n), us(a.handler, a.n), us(a.engine, a.n), a.calls/float64(a.n))
	}
	r.setN("trace.e2e_ms", total/float64(n)/1e6, n)
	r.setN("trace.untraced_e2e_ms", untracedTotal/float64(n)/1e6, n)
	r.set("trace.overhead_share", total/untracedTotal-1)
	r.set("trace.unattributed_ms", (total-attributed)/float64(n)/1e6)
	return nil
}
