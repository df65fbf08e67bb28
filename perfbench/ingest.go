package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/stream"
)

// The ingest-fresh workload's load shape.
const (
	// ingestNominalEPS is the nominal write rate the freshness metrics
	// are taken at; ingestReadQPS the read stream at the replica beside it.
	ingestNominalEPS = 800
	ingestReadQPS    = 700
	// freshLimitMs is the freshness p99 a ladder rung must meet.
	freshLimitMs = 250
	// The write ladder: rate k is ingestLadderBase·2^(k/perDoubling).
	ingestLadderBase        = 200
	ingestLadderPerDoubling = 16
	ingestLadderCoarse      = 8
	ingestLadderMaxK        = 96
	// ingestRungShare is the share of the measuring time one ladder rate
	// is probed for.
	ingestRungShare = 0.03
	// warmEvents are ingested, published and fetched during set-up so the
	// measured publishes take the incremental path from the start.
	warmEvents = 64
)

// eventGen draws the write mix of the load generator: mostly documents
// on existing users, with some new edges and new users. Documents and
// edges name only users that exist when the event is sent (events are
// ingested in order), new users included.
type eventGen struct {
	r     *rng.RNG
	users int
	words int
}

func (g *eventGen) next() stream.Event {
	switch g.r.Intn(8) {
	case 0:
		g.users++
		return stream.Event{Type: stream.EvAddUser}
	case 1:
		u := g.r.Intn(g.users)
		v := g.r.Intn(g.users - 1)
		if v >= u {
			v++
		}
		return stream.Event{Type: stream.EvAddEdge, User: int32(u), Target: int32(v)}
	default:
		doc := make([]int32, 8)
		for j := range doc {
			doc[j] = int32(g.r.Intn(g.words))
		}
		return stream.Event{Type: stream.EvAddDoc, User: int32(g.r.Intn(g.users)), Time: int64(g.r.Intn(1 << 20)), Words: doc}
	}
}

func (g *eventGen) batch(n int) []stream.Event {
	out := make([]stream.Event, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// pubRec is one publish as the publisher loop saw it.
type pubRec struct {
	gen          uint64
	cover        uint64 // journal offset the generation covers
	start, end   time.Time
	phases       stream.PublishPhases
	info         stream.PublishInfo
	shardWritten int
	shardLinked  int
	shardBytes   int64
	sections     int
}

// fetchRec is one replica poll that promoted a generation.
type fetchRec struct {
	gen        uint64
	start, end time.Time
	bytes      int64
}

// writePath runs the publisher and the replica's fetcher the way their
// own Run loops would, but back to back: the publisher publishes as soon
// as anything is pending, and the fetcher polls as soon as a generation
// is published. Freshness then measures the system, not a poll interval.
type writePath struct {
	f       *fleet
	rep     *replica
	tracker *freshTracker
	detail  bool // record per-publish section counts (traced runs)

	pubKick    chan struct{} // an event was ingested
	fetchKick  chan struct{} // a generation was published
	stop       chan struct{}
	stopOnce   sync.Once
	wg         sync.WaitGroup
	latest     atomic.Uint64 // newest published generation
	maxBacklog atomic.Int64

	mu        sync.Mutex
	pubs      []pubRec
	fetches   []fetchRec
	covers    map[uint64]uint64
	pubErrs   []string
	fetchErrs int
}

func newWritePath(f *fleet, rep *replica, detail bool) *writePath {
	w := &writePath{
		f: f, rep: rep, tracker: &freshTracker{}, detail: detail,
		pubKick: make(chan struct{}, 1), fetchKick: make(chan struct{}, 1),
		stop: make(chan struct{}), covers: map[uint64]uint64{},
	}
	w.latest.Store(f.updater.Generation())
	w.wg.Add(2)
	go w.publisher()
	go w.fetcher()
	return w
}

// close stops both loops and waits for them. It may be called again.
func (w *writePath) close() {
	w.stopOnce.Do(func() { close(w.stop) })
	w.wg.Wait()
}

func kick(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

func (w *writePath) publisher() {
	defer w.wg.Done()
	u, j := w.f.updater, w.f.journal
	for {
		select {
		case <-w.stop:
			return
		default:
		}
		if p := u.Pending(); p == 0 {
			select {
			case <-w.stop:
				return
			case <-w.pubKick:
			case <-time.After(5 * time.Millisecond):
			}
			continue
		} else if int64(p) > w.maxBacklog.Load() {
			w.maxBacklog.Store(int64(p))
		}
		start := time.Now()
		info, err := u.Publish()
		end := time.Now()
		if err != nil {
			w.mu.Lock()
			w.pubErrs = append(w.pubErrs, err.Error())
			w.mu.Unlock()
			continue
		}
		if info == nil {
			continue
		}
		cover := j.Watermark()
		rec := pubRec{gen: info.Generation, cover: cover, start: start, end: end, info: *info}
		if ph := u.Status().LastPublishPhases; ph != nil {
			rec.phases = *ph
		}
		rec.shardWritten, rec.shardLinked, rec.shardBytes = countShardFiles(w.f.snapDir, info.Generation)
		if w.detail {
			if secs, _, err := store.FileSections(info.Path); err == nil {
				rec.sections = len(secs)
			}
		}
		w.mu.Lock()
		w.pubs = append(w.pubs, rec)
		w.covers[info.Generation] = cover
		w.mu.Unlock()
		w.latest.Store(info.Generation)
		kick(w.fetchKick)
	}
}

func (w *writePath) fetcher() {
	defer w.wg.Done()
	f := w.rep.fetcher
	for {
		select {
		case <-w.stop:
			return
		case <-w.fetchKick:
		}
		for f.Generation() < w.latest.Load() {
			start := time.Now()
			gen, err := f.Poll()
			end := time.Now()
			if err != nil {
				w.mu.Lock()
				w.fetchErrs++
				w.mu.Unlock()
				select {
				case <-w.stop:
					return
				case <-time.After(5 * time.Millisecond):
				}
				continue
			}
			if gen == 0 {
				continue
			}
			w.mu.Lock()
			cover := w.covers[gen]
			w.fetches = append(w.fetches, fetchRec{gen: gen, start: start, end: end, bytes: fetchedBytes(w.rep, gen)})
			w.mu.Unlock()
			w.tracker.cover(cover, end)
		}
	}
}

// ingest sends events on an open-loop schedule from one client goroutine
// and stamps each with its journal offset.
func (w *writePath) ingest(evs []stream.Event, rate float64) ([]sample, int) {
	first := w.tracker.size()
	samples := openLoop(len(evs), rate, 1, func(int) int { return 0 }, func(i int, from time.Time) error {
		if _, err := w.f.updater.Ingest(evs[i : i+1]); err != nil {
			return err
		}
		w.tracker.add(w.f.journal.Tail(), from)
		kick(w.pubKick)
		return nil
	})
	return samples, first
}

// drain waits until every ingested event is servable on the replica, or
// the timeout passes.
func (w *writePath) drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for w.tracker.pending() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// countShardFiles counts generation gen's shard files the publisher wrote
// afresh and the ones it hard-linked from the previous generation, and
// the bytes of the group it wrote (manifest and global file included).
func countShardFiles(dir string, gen uint64) (written, linked int, bytes int64) {
	for k := 0; k < fleetShards; k++ {
		var st syscall.Stat_t
		if err := syscall.Stat(shard.ShardPath(dir, gen, k), &st); err != nil {
			continue
		}
		if st.Nlink > 1 {
			linked++
		} else {
			written++
			bytes += st.Size
		}
	}
	for _, p := range []string{shard.GlobalPath(dir, gen), shard.ManifestPath(dir, gen)} {
		if fi, err := os.Stat(p); err == nil {
			bytes += fi.Size()
		}
	}
	return written, linked, bytes
}

// fetchedBytes is the size of what a replica downloads for generation
// gen: the manifest, the global file and its own shard.
func fetchedBytes(rep *replica, gen uint64) int64 {
	var n int64
	cache := rep.cacheDir
	for _, p := range []string{shard.ManifestPath(cache, gen), shard.GlobalPath(cache, gen), shard.ShardPath(cache, gen, rep.shard)} {
		if fi, err := os.Stat(p); err == nil {
			n += fi.Size()
		}
	}
	return n
}

func runIngestFresh(r *run) error {
	lastShard := fleetShards - 1
	f, err := setUpFleet(r, fleetOptions{shards: []int{lastShard}}, func(f *fleet) error {
		// Take the write path through one publish and fetch, so pages,
		// connections and the incremental publish state are warm.
		g := &eventGen{r: rng.New(r.seed ^ 0x5bd1), users: f.base.NumUsers, words: f.base.NumWords}
		if _, err := f.updater.Ingest(g.batch(warmEvents)); err != nil {
			return err
		}
		if _, err := f.updater.Publish(); err != nil {
			return err
		}
		_, err := f.replicas[0].fetcher.Poll()
		return err
	})
	if err != nil {
		return err
	}
	defer f.close()
	rep := f.replicas[0]
	owned := ownedRange(rep)
	fmt.Printf("ingest-fresh: %d base users, |C|=|Z|=%d, publisher with %d-shard groups, replica owns shard %d (users %d..%d), journal and snapshots on %s\n",
		f.base.NumUsers, fleetComms, fleetShards, lastShard, owned.UserLo, owned.UserHi, fsType(f.dir))

	w := newWritePath(f, rep, r.trace)
	defer w.close()
	g := &eventGen{r: rng.New(r.seed), users: f.updater.Status().Users, words: f.base.NumWords}

	// Nominal rate, with a read stream against the replica beside it.
	// A traced run measures the nominal phase twice: untraced, then with
	// the per-event decomposition recorded.
	share := 0.6
	if r.trace {
		share = 0.25
	}
	cpu0 := cpuSeconds()
	ph, err := nominalWrites(r, w, g, share)
	if err != nil {
		return err
	}
	cpuPerEvent := (cpuSeconds() - cpu0) / float64(len(ph.ingest))
	fresh := ph.fresh
	ws, rs := summarize(ph.ingest), summarize(ph.reads)
	r.attempted += ws.sent + rs.sent
	r.failed += ws.failed + rs.failed
	r.set("peak_rss_mb", peakRSSMB())
	r.setN("work_p50_ms", median(fresh), len(fresh))
	r.setN("work_p90_ms", windowed(fresh, 0.9), len(fresh))
	r.setN("read_p90_ms", rs.p90, rs.sent)
	r.put("fresh_p50_ms", "ms", median(fresh), len(fresh))
	r.put("fresh_p99_ms", "ms", windowed(fresh, 0.99), len(fresh))
	r.put("ingest_read_p99_ms", "ms", rs.p99, rs.sent)
	for _, op := range readOps {
		lat := latenciesMs(ph.reads, int(op))
		r.put("ingest_read_p90_ms."+op.String(), "ms", windowed(lat, 0.9), len(lat))
	}
	r.put("fail_share", "share", float64(ws.failed+rs.failed)/float64(ws.sent+rs.sent), ws.sent+rs.sent)
	reportGen(r, ws)
	// As for reads, the gated capacity is CPU-normalized: the events per
	// second nproc cores sustain at the nominal phase's CPU cost per event
	// (ingest, fold, publish, fetch and the read stream beside them). The
	// ladder's ingest_max_eps is reported beside it; publish time is
	// mostly fsync, and on a shared host the ladder's answer moved by 40%
	// between identical runs.
	r.setN("max_rate_per_s", float64(runtime.NumCPU())/cpuPerEvent, len(ph.ingest))
	r.put("ingest_cpu_us_per_event", "us", cpuPerEvent*1e6, len(ph.ingest))

	if r.trace {
		w.mu.Lock()
		pubFrom, fetchFrom := len(w.pubs), len(w.fetches)
		w.mu.Unlock()
		traced, err := nominalWrites(r, w, g, share)
		if err != nil {
			return err
		}
		ts, trs := summarize(traced.ingest), summarize(traced.reads)
		r.attempted += ts.sent + trs.sent
		r.failed += ts.failed + trs.failed
		traceWrites(r, w, traced, pubFrom, fetchFrom, mean(fresh))
	} else {
		rungs := searchLadder(ingestLadderBase, ingestLadderPerDoubling, ingestLadderCoarse, ingestLadderMaxK, func(rate float64) rung {
			n := int(rate * r.budget(ingestRungShare).Seconds())
			samples, first := w.ingest(g.batch(n), rate)
			endBacklog := f.updater.Pending()
			s := summarize(samples)
			r.attempted += s.sent
			r.failed += s.failed
			drained := w.drain(freshLimitMs*time.Millisecond + 5*time.Second)
			fresh, missing := w.tracker.freshMs(first, first+n)
			p99 := windowed(fresh, 0.99)
			pass := drained && missing == 0 && s.failed == 0 && p99 <= freshLimitMs &&
				float64(endBacklog) <= rate*freshLimitMs/1000
			return rung{Rate: rate, Pass: pass,
				Note: fmt.Sprintf("fresh p99 %.1fms, backlog at end %d, ingest late at end %.1fms, failed %d of %d",
					p99, endBacklog, s.backlogEnd, s.failed, s.sent)}
		})
		printLadder("ingest", rungs)
		r.put("ingest_max_eps", "1/s", maxPassingRate(rungs), len(rungs))
	}

	// Output checks: the replica ends on the publisher's generation, and
	// users added by the stream answer on it exactly as on the publisher.
	if !w.drain(10 * time.Second) {
		r.check(false, "ingest-fresh: %d events never became servable on the replica", w.tracker.pending())
	}
	w.close()
	pubGen, repGen := f.updater.Generation(), rep.fetcher.Generation()
	r.check(pubGen == repGen, "ingest-fresh: replica serves generation %d, publisher is at %d", repGen, pubGen)
	r.check(len(w.pubErrs) == 0, "ingest-fresh: %d publishes failed: %v", len(w.pubErrs), w.pubErrs)
	r.check(w.fetchErrs == 0, "ingest-fresh: %d replica polls failed", w.fetchErrs)
	owned = ownedRange(rep)
	checked, mismatches := 0, 0
	for id := f.base.NumUsers; id < f.updater.Status().Users && checked < 50; id++ {
		if !owned.Owns(id) {
			continue
		}
		checked++
		r.attempted++
		req := &scenario.Request{Op: scenario.OpMembership, U: id, K: 5}
		got, err := httpAnswer(f.client, rep.srv.URL, req)
		if err != nil {
			r.failed++
			mismatches++
			continue
		}
		want, err := engineAnswer(f.pubEngine, req)
		if err != nil || !sameAnswer(got, want) {
			mismatches++
		}
	}
	r.check(checked > 0, "ingest-fresh: no stream-added user landed on the replica's shard")
	r.check(mismatches == 0, "ingest-fresh: %d of %d stream-added users answer differently on the replica", mismatches, checked)
	r.put("new_users_checked", "count", float64(checked), checked)
	return nil
}

// writePhase is one nominal-rate phase: the ingest and read samples, and
// the freshness of the phase's events [first, first+len(ingest)).
type writePhase struct {
	ingest, reads []sample
	first         int
	fresh         []float64
}

// nominalWrites ingests at the nominal rate for share of the measuring
// time while a read stream runs against the replica, then waits until
// every event is servable.
func nominalWrites(r *run, w *writePath, g *eventGen, share float64) (*writePhase, error) {
	n := int(ingestNominalEPS * r.budget(share).Seconds())
	nr := int(ingestReadQPS * r.budget(share).Seconds())
	owned := ownedRange(w.rep)
	reads := genReads(nr, r.seed+uint64(w.tracker.size()), w.f.space(owned.UserLo, owned.UserHi))
	target := w.f.target(w.rep.srv.URL)
	ph := &writePhase{}
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		ph.reads = openLoop(nr, ingestReadQPS, 1,
			func(i int) int { return int(reads[i].Op) },
			func(i int, _ time.Time) error { return target.Do(reads[i]) })
	}()
	ph.ingest, ph.first = w.ingest(g.batch(n), ingestNominalEPS)
	rwg.Wait()
	if !w.drain(10 * time.Second) {
		return nil, fmt.Errorf("%d events were not servable within 10s of the nominal phase", w.tracker.pending())
	}
	ph.fresh, _ = w.tracker.freshMs(ph.first, ph.first+n)
	return ph, nil
}

// traceWrites splits each traced event's freshness into the steps it
// waited on — the sender's backlog, the Ingest call, waiting for a publish,
// the publish, waiting for the replica's poll, the fetch — and reports
// the publish phases, shard and fetch counters behind them.
func traceWrites(r *run, w *writePath, ph *writePhase, pubFrom, fetchFrom int, untracedMean float64) {
	w.mu.Lock()
	pubs := append([]pubRec(nil), w.pubs...)
	fetches := append([]fetchRec(nil), w.fetches...)
	w.mu.Unlock()
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	later := func(a, b time.Time) time.Time {
		if b.After(a) {
			return b
		}
		return a
	}
	var parts [6]float64 // sender backlog, ingest, wait publish, publish, wait fetch, fetch
	var freshSum float64
	var ingestUs []float64
	n := len(ph.ingest)
	for i := 0; i < n; i++ {
		from, off, stamp := w.tracker.event(ph.first + i)
		s := ph.ingest[i]
		sent := from.Add(time.Duration(s.sent - s.origin()))
		done := from.Add(time.Duration(s.done - s.origin()))
		ingestUs = append(ingestUs, float64(s.done-s.sent)/1e3)
		k := sort.Search(len(pubs), func(k int) bool { return pubs[k].cover >= off })
		if k == len(pubs) {
			continue
		}
		p := pubs[k]
		fi := sort.Search(len(fetches), func(i int) bool { return fetches[i].gen >= p.gen })
		if fi == len(fetches) {
			continue
		}
		fr := fetches[fi]
		b3 := later(done, p.start)
		b4 := later(b3, p.end)
		b5 := later(b4, fr.start)
		b6 := later(b5, stamp)
		parts[0] += ms(sent.Sub(from))
		parts[1] += ms(done.Sub(sent))
		parts[2] += ms(b3.Sub(done))
		parts[3] += ms(b4.Sub(b3))
		parts[4] += ms(b5.Sub(b4))
		parts[5] += ms(b6.Sub(b5))
		freshSum += ms(stamp.Sub(from))
	}
	for k := range parts {
		parts[k] /= float64(n)
	}
	freshMean := freshSum / float64(n)

	pubs = pubs[pubFrom:]
	var spans, events, folded, incr, reused, written, linked, bytes []float64
	var phase [8]float64 // sync fold model save index_shard promote unattributed tail
	prevCover := uint64(0)
	if pubFrom > 0 {
		prevCover = w.pubs[pubFrom-1].cover
	}
	for _, p := range pubs {
		spans = append(spans, ms(p.end.Sub(p.start)))
		events = append(events, float64(w.tracker.countBetween(prevCover, p.cover)))
		prevCover = p.cover
		folded = append(folded, float64(p.info.Folded))
		incr = append(incr, boolf(p.info.Incremental))
		if p.sections > 0 {
			reused = append(reused, float64(p.info.SectionsReused)/float64(p.sections))
		}
		written = append(written, float64(p.shardWritten))
		linked = append(linked, float64(p.shardLinked))
		bytes = append(bytes, float64(p.shardBytes))
		x := p.phases
		us := []int64{x.SyncMicros, x.FoldMicros, x.ModelMicros, x.SaveMicros, x.IndexMicros, x.PromoteMicros}
		var named int64
		for j, v := range us {
			phase[j] += float64(v) / 1e3
			named += v
		}
		phase[6] += float64(x.TotalMicros-named) / 1e3
		phase[7] += ms(p.end.Sub(p.start)) - float64(x.TotalMicros)/1e3
	}
	np := len(pubs)
	for j, name := range []string{"sync", "fold", "model", "save", "index_shard", "promote", "unattributed", "tail"} {
		r.setN("stream.phase."+name+"_ms", phase[j]/float64(np), np)
	}
	r.setN("stream.ingest_us_p50", median(ingestUs), len(ingestUs))
	r.setN("stream.ingest_us_p99", percentile(ingestUs, 0.99), len(ingestUs))
	r.setN("stream.publish_ms_p50", median(spans), np)
	r.setN("stream.publish_ms_p99", percentile(spans, 0.99), np)
	r.setN("stream.wait_publish_ms", parts[2], n)
	r.setN("stream.events_per_publish", mean(events), np)
	r.setN("stream.folded_per_publish", mean(folded), np)
	r.setN("stream.incremental_share", mean(incr), np)
	r.set("stream.backlog_max", float64(w.maxBacklog.Load()))
	r.setN("store.sections_reused_share", mean(reused), len(reused))
	r.setN("shard.files_written_per_publish", mean(written), np)
	r.setN("shard.files_linked_per_publish", mean(linked), np)
	r.setN("shard.bytes_written_per_publish", mean(bytes), np)
	var fetchMs, fetchMB []float64
	for _, fr := range fetches[fetchFrom:] {
		fetchMs = append(fetchMs, ms(fr.end.Sub(fr.start)))
		fetchMB = append(fetchMB, float64(fr.bytes)/(1<<20))
	}
	r.setN("serve.fetch_ms", mean(fetchMs), len(fetchMs))
	r.setN("serve.fetch_mb", mean(fetchMB), len(fetchMB))
	r.setN("serve.wait_fetch_ms", parts[4], n)
	for _, s := range w.rep.engine.SnapshotsInfo() {
		if s.Name == serve.DefaultSnapshot {
			r.set("serve.mapped_mb", float64(s.MappedBytes)/(1<<20))
		}
	}
	attributed := 0.0
	for _, v := range parts {
		attributed += v
	}
	r.setN("trace.e2e_ms", freshMean, n)
	r.setN("trace.untraced_e2e_ms", untracedMean, n)
	r.set("trace.overhead_share", freshMean/untracedMean-1)
	r.set("trace.unattributed_ms", freshMean-attributed)
	fmt.Printf("traced freshness: %.2f ms = sender backlog %.2f + ingest %.2f + wait publish %.2f + publish %.2f + wait fetch %.2f + fetch %.2f (untraced %.2f ms, %d events, %d publishes)\n",
		freshMean, parts[0], parts[1], parts[2], parts[3], parts[4], parts[5], untracedMean, n, np)
}

func boolf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// ownedRange is the user range the replica's current snapshot owns.
func ownedRange(rep *replica) shard.Info {
	for _, s := range rep.engine.SnapshotsInfo() {
		if s.Name == serve.DefaultSnapshot && s.Shard != nil {
			return *s.Shard
		}
	}
	return shard.Info{}
}
