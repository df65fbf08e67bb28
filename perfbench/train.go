package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/store"
)

// The train workload's input: the scenario shape scaled to 3000 users
// with 64 planted communities and topics, trained with 64 of each.
const (
	trainUsers = 3000
	trainComms = 64
	trainIters = 8
	// trainMinNMI is the quality floor the run must keep.
	trainMinNMI = 0.6
	// setupRepeats is how many times every workload sets up; setup_s is
	// the median.
	setupRepeats = 3
	// trainReads is how many seeded reads compare the reopened model with
	// the in-memory one; about a tenth are fold-ins.
	trainReads = 6000
	// trainReadPasses is how many times the fold-ins among them are timed
	// again for read_p90_ms.
	trainReadPasses = 15
)

// trainRun is one timed core.Train + store.SaveV2.
type trainRun struct {
	total, save time.Duration
	setup       time.Duration // separate core.NewEngine call (traced runs only)
	diag        *core.Diagnostics
	traced      bool
}

func runTrain(r *run) error {
	var p *planted
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if p, err = generate(trainUsers, trainComms, r.seed); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.setN("setup_s", median(setups), len(setups))
	cfg := trainConfig(trainComms, trainIters, r.seed)
	toks := tokens(p.graph)
	path := filepath.Join(r.dir, "model.v2.snap")
	fmt.Printf("train: %d users, %d docs, %d tokens x %d EM iterations, |C|=|Z|=%d, sampler alias, workers %d\n",
		p.graph.NumUsers, len(p.graph.Docs), toks, trainIters, trainComms, cfg.Workers)

	// Train until the measuring time is used up. A traced run alternates
	// untraced and traced trainings so both are measured on the same input.
	var runs []trainRun
	var model *core.Model
	deadline := time.Now().Add(r.budget(1))
	for i := 0; len(runs) < 2 || time.Now().Before(deadline); i++ {
		tr := trainRun{traced: r.trace && i%2 == 1}
		if tr.traced {
			t0 := time.Now()
			e, err := core.NewEngine(p.graph, cfg)
			if err != nil {
				return fmt.Errorf("core.NewEngine: %w", err)
			}
			tr.setup = time.Since(t0)
			e.Close()
		}
		r.attempted++
		t0 := time.Now()
		m, diag, err := core.Train(p.graph, cfg)
		if err != nil {
			r.failed++
			return fmt.Errorf("core.Train: %w", err)
		}
		t1 := time.Now()
		if err := store.SaveV2(path, m); err != nil {
			r.failed++
			return fmt.Errorf("store.SaveV2: %w", err)
		}
		tr.total, tr.save, tr.diag = time.Since(t0), time.Since(t1), diag
		runs = append(runs, tr)
		model = m
	}

	var totals []float64
	for _, tr := range runs {
		if !tr.traced {
			totals = append(totals, tr.total.Seconds())
		}
	}
	trainS := median(totals)
	fmt.Printf("train: untraced trainings took %.3v s\n", totals)
	q := nmi(model, p)
	r.setN("work_p50_ms", trainS*1000, len(totals))
	r.setN("work_p90_ms", percentile(totals, 0.9)*1000, len(totals))
	r.set("max_rate_per_s", float64(toks*trainIters)/trainS)
	r.set("quality_nmi", q)
	r.put("train_s", "s", trainS, len(totals))
	r.put("train_nmi", "nmi", q, 1)
	r.put("train_token_sweeps", "count", float64(toks*trainIters), 1)
	r.check(q >= trainMinNMI, "train: NMI %.4f below the floor %.2f", q, trainMinNMI)

	// Reopen the saved model the way a server does and check it answers
	// exactly like the in-memory model. The reads double as the
	// workload's read probe.
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	t0 := time.Now()
	mm, err := store.Open(path)
	if err != nil {
		return fmt.Errorf("store.Open: %w", err)
	}
	openMs := msSince(t0)
	t0 = time.Now()
	verr := store.VerifyV2File(path)
	verifyMs := msSince(t0)
	r.check(verr == nil, "train: store.VerifyV2File: %v", verr)
	heap := serve.New(model, p.vocab, serve.Options{})
	defer heap.Close()
	mapped := serve.NewMulti(serve.Options{Mmap: true})
	defer mapped.Close()
	mapped.SwapMapped(serve.DefaultSnapshot, mm, p.vocab)
	reqs := genReads(trainReads, r.seed+1, querySpace{
		userHi: model.NumUsers, words: model.NumWords,
		topics: model.Cfg.NumTopics, buckets: model.NumBuckets,
	})
	var lat []float64
	var folds []*scenario.Request
	mismatches := 0
	for _, req := range reqs {
		r.attempted++
		t0 := time.Now()
		got, err := engineAnswer(mapped, req)
		lat = append(lat, msSince(t0))
		if req.Op == scenario.OpFoldIn {
			folds = append(folds, req)
		}
		if err != nil {
			r.failed++
			r.check(false, "train: reopened model failed %s: %v", req.Op, err)
			continue
		}
		want, err := engineAnswer(heap, req)
		if err != nil || !sameAnswer(got, want) {
			mismatches++
		}
	}
	r.check(mismatches == 0, "train: %d of %d answers from the reopened model differ from the in-memory model", mismatches, len(reqs))
	// The gated read figure is the fold-in p90: fold-in is the read whose
	// cost grows with the trained model, the others are microsecond
	// lookups, and a p90 over the whole mix lands on the gap between the
	// two and jumps between runs. The fold-ins are timed alone in
	// trainReadPasses passes, each after a collection so the training's
	// garbage is not collected under them, and the figure is the median
	// of the passes' p90s: one pass of ~600 fold-ins lasts well under a
	// second, and a host stall in it moved its p90 by half.
	var passP90 []float64
	for pass := 0; pass < trainReadPasses; pass++ {
		runtime.GC()
		ms := make([]float64, 0, len(folds))
		for _, req := range folds {
			r.attempted++
			t0 := time.Now()
			if _, err := engineAnswer(mapped, req); err != nil {
				r.failed++
				r.check(false, "train: reopened model failed %s: %v", req.Op, err)
				continue
			}
			ms = append(ms, msSince(t0))
		}
		passP90 = append(passP90, percentile(ms, 0.9))
	}
	r.setN("read_p90_ms", median(passP90), len(folds)*trainReadPasses)
	r.put("read_p99_ms", "ms", windowed(lat, 0.99), len(lat))

	if r.trace {
		traceTrain(r, runs, toks, float64(info.Size()), openMs, verifyMs)
	}
	return nil
}

// traceTrain reports the per-layer breakdown of the traced training with
// the median wall time. core.other_s is what no measured layer claims:
// warm start, cache refresh and model build.
func traceTrain(r *run, runs []trainRun, toks int, fileBytes, openMs, verifyMs float64) {
	var traced, untraced []trainRun
	for _, tr := range runs {
		if tr.traced {
			traced = append(traced, tr)
		} else {
			untraced = append(untraced, tr)
		}
	}
	if len(traced) == 0 {
		return
	}
	tr := medianRun(traced)
	d := tr.diag
	var sweepsMs []float64
	for _, s := range d.SweepSeconds {
		sweepsMs = append(sweepsMs, s*1000)
	}
	total := tr.total.Seconds()
	other := total - tr.setup.Seconds() - d.EStepSeconds - d.MStepSeconds - tr.save.Seconds()
	r.set("core.setup_s", tr.setup.Seconds())
	r.set("core.estep_s", d.EStepSeconds)
	r.setN("core.sweep_p50_ms", median(sweepsMs), len(sweepsMs))
	r.setN("core.sweep_max_ms", maxOf(sweepsMs), len(sweepsMs))
	r.set("core.tokens_per_s", float64(toks*len(d.SweepSeconds))/d.EStepSeconds)
	r.set("core.mstep_s", d.MStepSeconds)
	r.set("core.other_s", other)
	r.set("core.worker_imbalance", imbalance(d.WorkerActual))
	r.set("core.repacks", float64(d.Repacks))
	r.set("store.save_ms", tr.save.Seconds()*1000)
	r.set("store.file_mb", fileBytes/(1<<20))
	r.set("store.open_ms", openMs)
	r.set("store.verify_ms", verifyMs)
	tracedE2E := tr.total.Seconds() * 1000
	untracedE2E := medianRun(untraced).total.Seconds() * 1000
	r.set("trace.e2e_ms", tracedE2E)
	r.set("trace.untraced_e2e_ms", untracedE2E)
	r.set("trace.overhead_share", tracedE2E/untracedE2E-1)
	r.set("trace.unattributed_ms", 0) // core.other_s is the residual here
	fmt.Printf("traced train: %.1f ms = core.setup %.1f + estep %.1f + mstep %.1f + other %.1f + store.save %.1f (untraced %.1f ms)\n",
		tracedE2E, tr.setup.Seconds()*1000, d.EStepSeconds*1000, d.MStepSeconds*1000, other*1000,
		tr.save.Seconds()*1000, untracedE2E)
}

// medianRun returns the run with the median wall time.
func medianRun(runs []trainRun) trainRun {
	best := runs[0]
	var totals []float64
	for _, tr := range runs {
		totals = append(totals, tr.total.Seconds())
	}
	m := median(totals)
	for _, tr := range runs {
		if abs(tr.total.Seconds()-m) < abs(best.total.Seconds()-m) {
			best = tr
		}
	}
	return best
}

// imbalance is the max over the mean of per-worker busy times.
func imbalance(secs []float64) float64 {
	if len(secs) == 0 || mean(secs) == 0 {
		return 0
	}
	return maxOf(secs) / mean(secs)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
