package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/router"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/stream"
)

// The serving workloads' base model: the same generated shape as the
// train workload at 16 communities and topics, trained briefly. Its
// generation 1 is what the fleet serves.
const (
	fleetUsers  = 2000
	fleetComms  = 16
	fleetIters  = 8
	fleetShards = 2
)

// fleet is the serving side of the read and write workloads, all in this
// process: a publisher (a stream.Updater journaling to disk, folding new
// events in, writing full v2 files plus 2-shard groups and promoting them
// mapped) whose SnapshotServer is the origin replicas fetch from, and
// shard-owning replicas each serving one shard through serve.APIHandler.
type fleet struct {
	p       *planted
	base    *core.Model
	nmi     float64
	dir     string
	snapDir string

	journal   *stream.Journal
	updater   *stream.Updater
	pubEngine *serve.Engine
	origin    *httptest.Server

	replicas []*replica
	router   *router.Router
	front    *httptest.Server

	// client is what the generated load goes through: at most nproc
	// connections per host, like its client goroutines.
	client *http.Client
}

// replica is one shard-owning fleet member.
type replica struct {
	name     string
	shard    int
	cacheDir string
	engine   *serve.Engine
	fetcher  *serve.Fetcher
	srv      *httptest.Server
}

// fleetOptions picks the fleet's shape. A nil tracer leaves every
// handler unwrapped.
type fleetOptions struct {
	shards     []int // shard index each replica owns
	withRouter bool
	tracer     *tracer
}

// newFleet trains the base model, publishes generation 1 and starts the
// replicas (and the router in front of them when asked). The caller must
// close it.
func newFleet(seed uint64, dir string, opts fleetOptions) (f *fleet, err error) {
	f = &fleet{dir: dir, snapDir: filepath.Join(dir, "snapshots")}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	if err := os.MkdirAll(f.snapDir, 0o755); err != nil {
		return nil, err
	}
	if f.p, err = generate(fleetUsers, fleetComms, seed); err != nil {
		return nil, err
	}
	if f.base, _, err = core.Train(f.p.graph, trainConfig(fleetComms, fleetIters, seed)); err != nil {
		return nil, fmt.Errorf("training the base model: %w", err)
	}
	f.nmi = nmi(f.base, f.p)
	f.pubEngine = serve.New(f.base, f.p.vocab, serve.Options{Mmap: true})
	if f.journal, err = stream.OpenJournal(filepath.Join(dir, "events.wal"), stream.JournalOptions{}); err != nil {
		return nil, err
	}
	f.updater, err = stream.NewUpdater(f.journal, stream.Options{
		Engine: f.pubEngine, Base: f.base, Vocab: f.p.vocab,
		Dir: f.snapDir, Shards: fleetShards, Mmap: true,
		FoldSeed: seed, Workers: runtime.NumCPU(),
	})
	if err != nil {
		return nil, err
	}
	if _, err := f.updater.Publish(); err != nil {
		return nil, fmt.Errorf("publishing generation 1: %w", err)
	}
	f.origin = httptest.NewServer(stream.SnapshotServer(f.snapDir))

	f.client = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     runtime.NumCPU(),
			MaxIdleConnsPerHost: runtime.NumCPU(),
		},
	}
	var reps []router.Replica
	for _, k := range opts.shards {
		rep := &replica{name: fmt.Sprintf("shard-%d", k), shard: k}
		rep.cacheDir = filepath.Join(dir, "cache-"+rep.name)
		f.replicas = append(f.replicas, rep)
		rep.engine = serve.NewMulti(serve.Options{Mmap: true})
		rep.fetcher, err = serve.NewFetcher(rep.engine, serve.FetchOptions{
			Source: f.origin.URL, Dir: rep.cacheDir,
			Vocab: f.p.vocab, Sharded: true, Shard: k,
		})
		if err != nil {
			return nil, err
		}
		rep.engine.SetReplicaStats(func() any { return rep.fetcher.Status() })
		if _, err := rep.fetcher.Poll(); err != nil {
			return nil, fmt.Errorf("replica %s: fetching generation 1: %w", rep.name, err)
		}
		var h http.Handler = serve.APIHandler(rep.engine, nil)
		if opts.tracer != nil {
			h = opts.tracer.wrap("replica", h)
		}
		rep.srv = httptest.NewServer(h)
		reps = append(reps, router.Replica{Name: rep.name, Base: rep.srv.URL})
	}
	if opts.withRouter {
		if f.router, err = router.New(reps, router.Options{MaxLag: 1}); err != nil {
			return nil, err
		}
		f.router.PollReplicas()
		var h http.Handler = f.router.Handler()
		if opts.tracer != nil {
			h = opts.tracer.wrap("router", h)
		}
		f.front = httptest.NewServer(h)
	}
	return f, nil
}

// close stops every server and engine the fleet started and waits for
// them.
func (f *fleet) close() {
	if f.front != nil {
		f.front.Close()
	}
	for _, rep := range f.replicas {
		if rep.srv != nil {
			rep.srv.Close()
		}
		if rep.engine != nil {
			rep.engine.Close()
		}
	}
	if f.origin != nil {
		f.origin.Close()
	}
	if f.updater != nil {
		f.updater.Close()
	}
	if f.journal != nil {
		f.journal.Close()
	}
	if f.pubEngine != nil {
		f.pubEngine.Close()
	}
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
}

// reference loads generation gen's full file into a fresh in-process
// engine: the single full node routed answers must equal.
func (f *fleet) reference(gen uint64) (*serve.Engine, error) {
	ref := serve.NewMulti(serve.Options{Mmap: true})
	if _, err := ref.LoadGeneration(serve.DefaultSnapshot, store.GenPath(f.snapDir, gen), f.p.vocab, gen); err != nil {
		ref.Close()
		return nil, err
	}
	return ref, nil
}

// space is the query space of the base model, restricted to the users
// [lo, hi).
func (f *fleet) space(lo, hi int) querySpace {
	return querySpace{
		userLo: lo, userHi: hi, words: f.base.NumWords,
		topics: f.base.Cfg.NumTopics, buckets: f.base.NumBuckets,
	}
}

// setUpFleet builds the fleet setupRepeats times, keeps the last one and
// records the median set-up time as setup_s. warm runs on each fleet
// before the clock stops, so page warm-up counts as set-up.
func setUpFleet(r *run, opts fleetOptions, warm func(*fleet) error) (*fleet, error) {
	var setups []float64
	var f *fleet
	for i := 0; i < setupRepeats; i++ {
		dir := filepath.Join(r.dir, fmt.Sprintf("fleet-%d", i))
		t0 := time.Now()
		var err error
		if f, err = newFleet(r.seed, dir, opts); err != nil {
			return nil, err
		}
		if err := warm(f); err != nil {
			f.close()
			return nil, fmt.Errorf("warming up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			f.close()
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	r.setN("setup_s", median(setups), len(setups))
	r.set("quality_nmi", f.nmi)
	return f, nil
}

// target executes a request over HTTP through the fleet's client.
func (f *fleet) target(base string) scenario.HTTPTarget {
	return scenario.HTTPTarget{Base: base, Client: f.client}
}
