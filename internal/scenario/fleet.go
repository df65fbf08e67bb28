package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/stream"
)

// FleetPreset names one routed-fleet regime: a base population and a
// fleet topology. The run drives the full pipeline — train → publish →
// fetch → route → query — and pins the distribution invariant: every
// query answered THROUGH the router is bit-identical to a single full
// node answering from the same generation file, on both sides of a live
// generation rollout.
type FleetPreset struct {
	Name        string
	Description string

	// Base is the underlying population preset; baseFraction of its users
	// train the frozen base model, the rest arrive as stream events split
	// across the run's two generations.
	Base Preset

	// Replicas is the serving fleet size behind the router.
	Replicas int

	// Shards selects what each replica maps. 0: every replica fetches the
	// full snapshot, and user ownership is only the router's
	// cache-locality policy. Shards == Replicas: the publisher also emits
	// each generation as a shard group and replica i maps only the global
	// file plus shard i, cutting its footprint roughly Shards-fold. Any
	// other value is rejected.
	Shards int
}

// FleetPresets returns the routed-fleet regimes the suite runs.
func FleetPresets() []FleetPreset {
	bp, err := Lookup("uniform")
	if err != nil {
		panic(err)
	}
	return []FleetPreset{
		{
			Name: "tri-replica",
			Description: "three full replicas behind a scatter-gather router, " +
				"bit-equality vs a single node across a live generation rollout",
			Base: bp, Replicas: 3,
		},
		{
			Name: "sharded-fleet",
			Description: "three shard-owning replicas behind a shard-aware router, " +
				"bit-equality vs a single full node across a live generation rollout",
			Base: bp, Replicas: 3, Shards: 3,
		},
	}
}

// LookupFleet resolves a fleet preset by name.
func LookupFleet(name string) (FleetPreset, error) {
	return lookup("fleet preset", FleetPresets(), name, func(p FleetPreset) string { return p.Name })
}

// FleetMetrics is one fleet run's measurement.
type FleetMetrics struct {
	Preset   string `json:"preset"`
	Replicas int    `json:"replicas"`
	Shards   int    `json:"shards,omitempty"`
	// Generations is the final fleet generation (the rollout count).
	Generations uint64 `json:"generations"`
	// EqualityChecks counts routed-vs-single-node comparisons that ran
	// (memberships, rankings, diffusions and fold-ins, per generation).
	EqualityChecks int `json:"equalityChecks"`
	// ReadQueries/ReadErrors account the read hammer that runs through the
	// router DURING the generation rollout; the invariant is zero errors.
	ReadQueries uint64 `json:"readQueries"`
	ReadErrors  uint64 `json:"readErrors"`
	// Misroutes is the fleet-wide 421 count the router observed.
	Misroutes uint64 `json:"misroutes"`
	// FullBytes is the final generation's full snapshot size and
	// MaxReplicaMappedBytes the largest mapped footprint any replica
	// carried. On a sharded fleet GlobalBytes is the global shard file's
	// size, and every replica must stay within full/N + global (plus
	// imbalance slack): the ~N-fold memory win the format exists for.
	FullBytes             int64 `json:"fullBytes"`
	GlobalBytes           int64 `json:"globalBytes,omitempty"`
	MaxReplicaMappedBytes int64 `json:"maxReplicaMappedBytes"`
}

// fleetReplica bundles one fleet member's moving parts.
type fleetReplica struct {
	engine  *serve.Engine
	fetcher *serve.Fetcher
	srv     *httptest.Server
}

// RunFleet executes one fleet preset end to end:
//
//  1. train the base model and publish generation 1 through a real
//     stream.Updater into a snapshot directory (plus a shard group when
//     the preset is sharded);
//  2. start Replicas serve engines, each pulling that directory through
//     serve.Fetcher (CRC-verified, warmed, atomically swapped) — the full
//     file, or only the manifest, the global file and its own shard;
//  3. front them with internal/router and verify membership (every user),
//     rank, diffusion (same-shard and cross-shard pairs) and fold-in
//     (friends spanning shards) answer bit-identically to a single engine
//     that loaded the same full generation file;
//  4. roll the fleet to generation 2 under a routed read hammer — zero
//     read errors tolerated;
//  5. re-verify bit-equality on generation 2, that the router sees the
//     whole fleet healthy and unlagged, each replica's mapped footprint
//     (within budget when sharded), and that the drain latch takes a
//     replica out of preferred rotation while its users keep answering.
func RunFleet(p FleetPreset, opts RunOptions) (*FleetMetrics, error) {
	if p.Replicas < 2 {
		return nil, fmt.Errorf("scenario %s: a fleet run needs at least 2 replicas", p.Name)
	}
	if p.Shards != 0 && p.Shards != p.Replicas {
		return nil, fmt.Errorf("scenario %s: Shards must be 0 (full replicas) or equal Replicas (%d), got %d",
			p.Name, p.Replicas, p.Shards)
	}
	sharded := p.Shards > 0
	sb, err := newStreamBase(p.Name, p.Base, 0)
	if err != nil {
		return nil, err
	}
	b, baseModel, evs := sb.b, sb.model, sb.evs
	half := len(evs) / 2

	scratch, err := os.MkdirTemp(opts.Dir, "cpd-fleet-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	snapDir := filepath.Join(scratch, "snapshots")
	if err := os.MkdirAll(snapDir, 0o755); err != nil {
		return nil, err
	}

	// The publisher: a real updater journaling into snapDir, exactly what
	// a cpd-serve -ingest [-ingest-shards N] process runs.
	pubEngine := serve.New(baseModel, b.Vocab, serve.Options{})
	defer pubEngine.Close()
	j, err := stream.OpenJournal(filepath.Join(scratch, "events.wal"), stream.JournalOptions{})
	if err != nil {
		return nil, err
	}
	defer j.Close()
	u, err := stream.NewUpdater(j, stream.Options{
		Engine:       pubEngine,
		Base:         baseModel,
		Vocab:        b.Vocab,
		WindowEvents: len(evs) + 16, // publish manually, per generation
		FoldSweeps:   10,
		FoldSeed:     p.Base.Synth.Seed,
		BaseGraph:    sb.baseG,
		Workers:      2,
		Dir:          snapDir,
		Shards:       p.Shards,
	})
	if err != nil {
		return nil, err
	}
	defer u.Close()

	if _, err := u.Ingest(evs[:half]); err != nil {
		return nil, fmt.Errorf("scenario %s: generation-1 ingest failed: %w", p.Name, err)
	}
	if _, err := u.Publish(); err != nil {
		return nil, fmt.Errorf("scenario %s: generation-1 publish failed: %w", p.Name, err)
	}

	// The fleet: every replica pulls the snapshot dir through its own
	// fetcher (replica i fetching only shard i when sharded) and serves
	// the standard JSON API.
	var reps []*fleetReplica
	var routerReps []router.Replica
	defer func() {
		for _, r := range reps {
			r.srv.Close()
			r.engine.Close()
		}
	}()
	for i := 0; i < p.Replicas; i++ {
		e := serve.NewMulti(serve.Options{Mmap: true})
		f, err := serve.NewFetcher(e, serve.FetchOptions{
			Source: snapDir, Vocab: b.Vocab, Interval: 2 * time.Millisecond,
			Sharded: sharded, Shard: i,
		})
		if err != nil {
			e.Close()
			return nil, err
		}
		e.SetReplicaStats(func() any { return f.Status() })
		if _, err := f.Poll(); err != nil {
			e.Close()
			return nil, fmt.Errorf("scenario %s: replica %d initial fetch failed: %w", p.Name, i, err)
		}
		srv := httptest.NewServer(serve.APIHandler(e, nil))
		reps = append(reps, &fleetReplica{engine: e, fetcher: f, srv: srv})
		routerReps = append(routerReps, router.Replica{Name: fmt.Sprintf("replica-%d", i), Base: srv.URL})
	}

	rt, err := router.New(routerReps, router.Options{MaxLag: 1})
	if err != nil {
		return nil, err
	}
	rt.PollReplicas()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	m := &FleetMetrics{Preset: p.Name, Replicas: p.Replicas, Shards: p.Shards}
	var problems []string
	fail := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	checkTopology := func(when string) {
		if st := rt.Stats(); st.Sharded != sharded || st.Shards != p.Shards {
			fail("%s: router sees sharded=%v shards=%d, want %d shards", when, st.Sharded, st.Shards, p.Shards)
		}
	}
	checkTopology("before rollout")

	checkGeneration := func(gen uint64, users int) {
		// The single-node reference: a fresh engine loading the full file
		// the same publish wrote.
		ref := serve.NewMulti(serve.Options{Mmap: true})
		defer ref.Close()
		if _, err := ref.LoadGeneration(serve.DefaultSnapshot, store.GenPath(snapDir, gen), b.Vocab, gen); err != nil {
			fail("generation %d: reference engine failed to load: %v", gen, err)
			return
		}
		// call queries the router (POSTing body as JSON when non-nil) and
		// decodes a 200 answer into into.
		call := func(path string, body, into any) bool {
			var resp *http.Response
			var err error
			if body == nil {
				resp, err = http.Get(front.URL + path)
			} else {
				raw, _ := json.Marshal(body) // request structs always marshal
				resp, err = http.Post(front.URL+path, "application/json", bytes.NewReader(raw))
			}
			if err != nil {
				fail("generation %d: %s: %v", gen, path, err)
				return false
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				fail("generation %d: %s answered %d", gen, path, resp.StatusCode)
				return false
			}
			if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
				fail("generation %d: %s decode: %v", gen, path, err)
				return false
			}
			return true
		}
		// same compares a routed answer with the reference's (both result
		// pointers). Every result carries the engine's process-local swap
		// counter as Version, so it is zeroed on both sides first.
		same := func(what string, got, want any, refErr error) bool {
			if refErr != nil {
				fail("generation %d: reference %s: %v", gen, what, refErr)
				return false
			}
			for _, v := range []any{got, want} {
				reflect.ValueOf(v).Elem().FieldByName("Version").SetUint(0)
			}
			if !reflect.DeepEqual(got, want) {
				fail("generation %d: %s diverges: routed %+v vs single node %+v", gen, what, got, want)
				return false
			}
			m.EqualityChecks++
			return true
		}

		// Memberships: every user, owner-routed. This sweeps every shard
		// boundary, so an off-by-one in range ownership fails here.
		for id := 0; id < users; id++ {
			var got serve.MembershipResult
			if !call(fmt.Sprintf("/api/user?id=%d&k=5", id), nil, &got) {
				return
			}
			want, err := ref.Membership(id, 5)
			if !same(fmt.Sprintf("membership(%d)", id), &got, want, err) {
				return
			}
		}
		// Rankings: scattered and merged (per-shard Members summed) — the
		// merge must reproduce the single node bit for bit.
		step := max(baseModel.NumWords/16, 1)
		for w := 0; w < baseModel.NumWords; w += step {
			var got serve.RankResult
			if !call(fmt.Sprintf("/api/rank?w=%d&k=5", w), nil, &got) {
				return
			}
			want, err := ref.Rank([]int32{int32(w)}, 5)
			if !same(fmt.Sprintf("rank(%d)", w), &got, want, err) {
				return
			}
		}
		// Diffusion: one same-shard pair and the maximally cross-shard
		// pairs (first and last user live on different shards by
		// construction), the latter exercising the row-carrying POST path.
		for _, pair := range [][2]int{{0, 1}, {0, users - 1}, {users - 1, 0}} {
			var got serve.DiffusionResult
			if !call(fmt.Sprintf("/api/diffusion?u=%d&v=%d&topic=0&bucket=-1", pair[0], pair[1]), nil, &got) {
				return
			}
			want, err := ref.Diffusion(pair[0], pair[1], 0, -1)
			if !same(fmt.Sprintf("diffusion(%v)", pair), &got, want, err) {
				return
			}
		}
		// Fold-in with friends spanning shards: the router must hydrate
		// the rows no single replica owns.
		fi := &serve.FoldInRequest{
			Docs:    [][]int32{{0, 1, 2}, {3, 4}},
			Friends: []int32{0, int32(users - 1)},
			Seed:    99,
			Sweeps:  8,
		}
		var got serve.FoldInResult
		if !call("/api/foldin", fi, &got) {
			return
		}
		want, err := ref.FoldIn(fi)
		same("fold-in", &got, want, err)
	}

	// Generation 1, fleet at rest.
	checkGeneration(1, baseModel.NumUsers)

	// The rollout: fetchers polling live, a read hammer flowing through
	// the router, generation 2 published under it.
	ctx, cancel := context.WithCancel(context.Background())
	var fwg sync.WaitGroup
	for _, r := range reps {
		fwg.Add(1)
		go func(f *serve.Fetcher) {
			defer fwg.Done()
			f.Run(ctx)
		}(r.fetcher)
	}
	stopReads := make(chan struct{})
	var rwg sync.WaitGroup
	var reads, readErrs atomic.Uint64
	target := HTTPTarget{Base: front.URL, Client: front.Client()}
	for w := 0; w < 2; w++ {
		rwg.Add(1)
		go func(w int) {
			defer rwg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopReads:
					return
				default:
				}
				reads.Add(2)
				if err := target.Do(&Request{Op: OpMembership, U: (i + w) % sb.baseUsers, K: 5}); err != nil {
					readErrs.Add(1)
				}
				if err := target.Do(&Request{Op: OpRank, Words: []int32{int32(i % baseModel.NumWords)}, K: 5}); err != nil {
					readErrs.Add(1)
				}
			}
		}(w)
	}

	rolloutErr := func() error {
		if _, err := u.Ingest(evs[half:]); err != nil {
			return fmt.Errorf("scenario %s: generation-2 ingest failed: %w", p.Name, err)
		}
		if _, err := u.Publish(); err != nil {
			return fmt.Errorf("scenario %s: generation-2 publish failed: %w", p.Name, err)
		}
		// Wait for every replica to pull the new generation.
		deadline := time.Now().Add(10 * time.Second)
		for _, r := range reps {
			for r.fetcher.Generation() < 2 {
				if time.Now().After(deadline) {
					return fmt.Errorf("scenario %s: fleet did not reach generation 2 in time", p.Name)
				}
				time.Sleep(time.Millisecond)
			}
		}
		return nil
	}()
	close(stopReads)
	rwg.Wait()
	cancel()
	fwg.Wait()
	m.ReadQueries, m.ReadErrors = reads.Load(), readErrs.Load()
	if rolloutErr != nil {
		return m, rolloutErr
	}
	if m.ReadErrors > 0 {
		fail("%d of %d routed reads failed during the generation rollout", m.ReadErrors, m.ReadQueries)
	}

	// Generation 2: fleet healthy, unlagged, topology intact and still
	// bit-identical.
	rt.PollReplicas()
	st := rt.Stats()
	m.Generations, m.Misroutes = st.Generation, st.Misroutes
	if st.Generation != 2 {
		fail("fleet generation %d after rollout, want 2", st.Generation)
	}
	if st.Healthy != p.Replicas {
		fail("%d of %d replicas healthy after rollout", st.Healthy, p.Replicas)
	}
	for _, r := range st.Replicas {
		if r.Lag != 0 || r.Lagging {
			fail("replica %s lags the fleet after rollout: %+v", r.Name, r)
		}
	}
	checkTopology("after rollout")
	checkGeneration(2, u.Model().NumUsers)

	// Footprint: every replica serves generation 2 mapped. A shard owner
	// maps the global file plus ~1/N of the user payload, not the whole
	// snapshot; the slack term absorbs weight-balancing imbalance and
	// 64-byte section alignment.
	fileSize := func(path string) int64 {
		fi, err := os.Stat(path)
		if err != nil {
			fail("stat generation-2 file: %v", err)
			return 0
		}
		return fi.Size()
	}
	m.FullBytes = fileSize(store.GenPath(snapDir, 2))
	if sharded {
		m.GlobalBytes = fileSize(shard.GlobalPath(snapDir, 2))
	}
	budget := m.FullBytes/int64(max(p.Shards, 1)) + m.GlobalBytes + m.FullBytes/8
	for i, r := range reps {
		var mapped int64
		for _, ss := range r.engine.SnapshotsInfo() {
			if ss.Name != serve.DefaultSnapshot {
				continue
			}
			mapped = ss.MappedBytes
			if !ss.Mapped {
				fail("replica %d serves an unmapped snapshot", i)
			}
			if (ss.Shard != nil) != sharded {
				fail("replica %d snapshot shard info %+v, want sharded=%v", i, ss.Shard, sharded)
			}
		}
		if mapped == 0 {
			fail("replica %d reports zero mapped bytes", i)
		}
		if sharded && m.FullBytes > 0 && mapped > budget {
			fail("replica %d maps %d bytes, budget %d (full %d, global %d, %d shards)",
				i, mapped, budget, m.FullBytes, m.GlobalBytes, p.Shards)
		}
		m.MaxReplicaMappedBytes = max(m.MaxReplicaMappedBytes, mapped)
	}

	// Drain: the latch flips the replica's advertisement and the router
	// sees it. Its users keep answering — through another owner, or, when
	// the drained replica is its shard's only owner, the fallback tier.
	if resp, err := http.Post(reps[0].srv.URL+"/api/drain", "application/json", nil); err != nil {
		fail("drain request failed: %v", err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			fail("drain answered status %d", resp.StatusCode)
		}
	}
	rt.PollReplicas()
	draining := 0
	for _, r := range rt.Stats().Replicas {
		if r.Draining {
			draining++
		}
	}
	if draining != 1 {
		fail("%d replicas draining after one drain request", draining)
	}
	for id := 0; id < u.Model().NumUsers; id++ {
		resp, err := http.Get(fmt.Sprintf("%s/api/user?id=%d&k=5", front.URL, id))
		if err != nil {
			fail("membership(%d) after drain failed: %v", id, err)
			break
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			fail("membership(%d) after drain answered %d, want 200", id, resp.StatusCode)
			break
		}
	}

	if len(problems) > 0 {
		return m, fmt.Errorf("scenario %s: %s", p.Name, strings.Join(problems, "; "))
	}
	return m, nil
}
