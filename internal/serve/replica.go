package serve

// Replica-side snapshot distribution: a Fetcher pulls generation-numbered
// v2 snapshots from a publisher — either its snapshot directory (shared
// filesystem) or its HTTP snapshot endpoint (internal/stream's
// SnapshotServer) — and promotes them into an Engine slot. Distribution
// is pull-by-generation: each poll discovers the newest generation, and
// only a strictly newer one triggers a fetch. Before a fetched file goes
// live it is (1) fully CRC-verified — the section table AND every payload,
// the O(model) pass the mapped opener skips by design — and (2) warmed
// with a sequential read, so the page cache is hot before the first query
// touches the mapping. Promotion is the engine's usual atomic swap;
// in-flight queries finish on the snapshot they started with, exactly as
// for a local reload. A generation is either one full v2 file or a shard
// group (FetchOptions.Sharded); both run the same pipeline, differing
// only in the discovery listing, the files fetched, how each is verified
// and the promote call.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/internal/shard"
	"repro/internal/store"
)

// FetchOptions configures a Fetcher.
type FetchOptions struct {
	// Source is where generations come from: a snapshot directory path,
	// or an http(s) base URL of a server mounting stream.SnapshotServer.
	Source string
	// Dir is the local cache directory for downloaded files. Required
	// for an HTTP source; ignored for a directory source (files are
	// verified and mapped in place).
	Dir string
	// Snapshot is the engine slot promoted into (default "default").
	Snapshot string
	// Vocab, when non-nil, enables free-text queries on the promoted
	// snapshots (the vocabulary does not travel with generation files).
	Vocab *corpus.Vocabulary
	// Interval is the poll period for Run (default 2s).
	Interval time.Duration
	// Client is the HTTP client for URL sources (default: 30s timeout).
	Client *http.Client
	// Keep bounds the local cache for HTTP sources: after a promote,
	// downloaded files older than the newest Keep generations are
	// removed with their .verified sidecars (default 2; the file backing
	// the live mapping stays valid even once unlinked).
	Keep int
	// Sharded switches the fetcher to shard-group generations
	// (internal/shard): each poll discovers the newest shard manifest,
	// fetches the manifest plus the global file and this replica's own
	// shard, verifies every file against the manifest's per-section CRCs,
	// warms both, and promotes the group as a unit
	// (Engine.PromoteShardGroup). The replica then maps ~(1/N of the user
	// state + the global sections) instead of the whole model.
	Sharded bool
	// Shard is the shard index this replica owns (Sharded mode only).
	Shard int
}

// FetchStatus is a Fetcher's observable state (the "replica" section of
// /api/stats on a fetching server).
type FetchStatus struct {
	Source     string `json:"source"`
	Snapshot   string `json:"snapshot"`
	Generation uint64 `json:"generation"`
	// Fetches counts promoted generations; Failures failed poll or
	// fetch attempts (the generation is re-attempted next poll).
	Fetches   uint64 `json:"fetches"`
	Failures  uint64 `json:"failures"`
	LastPoll  string `json:"lastPoll,omitempty"`
	LastError string `json:"lastError,omitempty"`
}

// Fetcher keeps one engine slot tracking a publisher's newest generation.
type Fetcher struct {
	e    *Engine
	opts FetchOptions
	http bool

	mu       sync.Mutex
	gen      uint64
	fetches  uint64
	failures uint64
	lastPoll time.Time
	lastErr  string
}

// NewFetcher validates the options and returns a Fetcher. No fetch
// happens yet; call Poll (or Run) to start tracking.
func NewFetcher(e *Engine, opts FetchOptions) (*Fetcher, error) {
	if opts.Source == "" {
		return nil, fmt.Errorf("serve: fetcher needs a source")
	}
	if opts.Sharded && opts.Shard < 0 {
		return nil, fmt.Errorf("serve: shard index %d is negative", opts.Shard)
	}
	isHTTP := strings.HasPrefix(opts.Source, "http://") || strings.HasPrefix(opts.Source, "https://")
	if isHTTP {
		opts.Source = strings.TrimRight(opts.Source, "/")
		if opts.Dir == "" {
			return nil, fmt.Errorf("serve: an HTTP snapshot source needs a local cache dir")
		}
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, err
		}
	}
	if opts.Snapshot == "" {
		opts.Snapshot = DefaultSnapshot
	}
	if opts.Interval <= 0 {
		opts.Interval = 2 * time.Second
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if opts.Keep <= 0 {
		opts.Keep = 2
	}
	return &Fetcher{e: e, opts: opts, http: isHTTP}, nil
}

// Generation returns the newest generation this fetcher has promoted.
func (f *Fetcher) Generation() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gen
}

// Status snapshots the fetcher's counters.
func (f *Fetcher) Status() FetchStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := FetchStatus{
		Source:     f.opts.Source,
		Snapshot:   f.opts.Snapshot,
		Generation: f.gen,
		Fetches:    f.fetches,
		Failures:   f.failures,
		LastError:  f.lastErr,
	}
	if !f.lastPoll.IsZero() {
		st.LastPoll = f.lastPoll.UTC().Format(time.RFC3339)
	}
	return st
}

// WriteMetrics emits the fetcher's gauges in Prometheus text exposition
// format — registered on the engine via AddMetricsCollector.
func (f *Fetcher) WriteMetrics(w io.Writer) {
	st := f.Status()
	gauge(w, "cpd_replica_generation", "Publisher generation this replica serves.", "", float64(st.Generation))
	gauge(w, "cpd_replica_fetches_total", "Generations fetched, verified and promoted.", "", float64(st.Fetches))
	gauge(w, "cpd_replica_fetch_failures_total", "Failed fetch or verify attempts.", "", float64(st.Failures))
}

// Poll runs one discover→fetch→verify→warm→promote cycle. It returns
// the promoted generation (0 if the replica is already current) and
// records failures for Status; a failed attempt leaves the serving state
// untouched and is retried on the next poll.
func (f *Fetcher) Poll() (uint64, error) {
	gen, err := f.poll()
	f.mu.Lock()
	f.lastPoll = time.Now()
	if err != nil {
		f.failures++
		f.lastErr = err.Error()
	} else {
		f.lastErr = ""
		if gen > 0 {
			f.gen = gen
			f.fetches++
		}
	}
	f.mu.Unlock()
	return gen, err
}

// Run polls until the context is cancelled.
func (f *Fetcher) Run(ctx context.Context) {
	t := time.NewTicker(f.opts.Interval)
	defer t.Stop()
	for {
		f.Poll() // errors are surfaced via Status/metrics; keep polling
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// poll is one discover→materialize→verify→warm→promote→prune cycle,
// shared by both layouts. A shard group's manifest names every file and
// its per-section CRCs, so the group verifies and promotes as a unit or
// is retried whole next poll.
func (f *Fetcher) poll() (uint64, error) {
	latest, err := f.discover()
	if err != nil {
		return 0, err
	}
	f.mu.Lock()
	have := f.gen
	f.mu.Unlock()
	if latest == 0 || latest <= have {
		return 0, nil // nothing published yet, or already current
	}
	dir := f.opts.Source
	if f.http {
		dir = f.opts.Dir
		if err := f.materialize(latest); err != nil {
			return 0, err
		}
	}
	promote, err := f.verify(dir, latest)
	if err != nil {
		if f.http {
			// materialize reuses cached files, so a bad download must go
			// or it would fail verification on every poll until a newer
			// generation is published.
			f.removeCached(latest)
		}
		return 0, fmt.Errorf("verifying generation %d: %w", latest, err)
	}
	for _, gf := range f.files(dir, latest) {
		if err := warmFile(gf.path); err != nil {
			return 0, fmt.Errorf("warming generation %d: %w", latest, err)
		}
	}
	if err := promote(); err != nil {
		return 0, fmt.Errorf("promoting generation %d: %w", latest, err)
	}
	if f.http {
		f.pruneCache(latest)
	}
	return latest, nil
}

// genFile is one file of a generation this replica maps: its local path
// and, for an HTTP source, its download endpoint relative to Source.
type genFile struct {
	path, query string
}

// files lists generation gen's files under dir: the full v2 snapshot, or
// a shard group's manifest (first — it names the others' checksums), its
// global file and this replica's own shard.
func (f *Fetcher) files(dir string, gen uint64) []genFile {
	if !f.opts.Sharded {
		return []genFile{{store.GenPath(dir, gen), fmt.Sprintf("/api/generations/file?gen=%d", gen)}}
	}
	return []genFile{
		{shard.ManifestPath(dir, gen), fmt.Sprintf("/api/shards/manifest?gen=%d", gen)},
		{shard.GlobalPath(dir, gen), fmt.Sprintf("/api/shards/file?gen=%d&global=1", gen)},
		{shard.ShardPath(dir, gen, f.opts.Shard), fmt.Sprintf("/api/shards/file?gen=%d&shard=%d", gen, f.opts.Shard)},
	}
}

// scan lists the generations present under dir, ascending.
func (f *Fetcher) scan(dir string) ([]uint64, error) {
	if f.opts.Sharded {
		return shard.ScanManifests(dir)
	}
	files, err := store.ScanGenerations(dir)
	gens := make([]uint64, len(files))
	for i, gf := range files {
		gens[i] = gf.Generation
	}
	return gens, err
}

// discover finds the newest generation the source offers.
func (f *Fetcher) discover() (uint64, error) {
	if !f.http {
		gens, err := f.scan(f.opts.Source)
		if err != nil || len(gens) == 0 {
			return 0, err
		}
		return gens[len(gens)-1], nil
	}
	index := f.opts.Source + "/api/generations"
	if f.opts.Sharded {
		index = f.opts.Source + "/api/shards"
	}
	resp, err := f.opts.Client.Get(index)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return 0, fmt.Errorf("%s answered status %d", index, resp.StatusCode)
	}
	var man struct {
		Generation uint64 `json:"generation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&man); err != nil {
		return 0, err
	}
	return man.Generation, nil
}

// materialize downloads generation gen's files into the cache dir.
// Already-downloaded files are reused; verify re-checks every CRC either
// way, and poll drops a generation that fails it.
func (f *Fetcher) materialize(gen uint64) error {
	for _, gf := range f.files(f.opts.Dir, gen) {
		if _, err := os.Stat(gf.path); err == nil {
			continue
		}
		if err := f.download(f.opts.Source+gf.query, gf.path); err != nil {
			return err
		}
	}
	return nil
}

// verify checks generation gen's files under dir and returns the step
// that promotes them. A full snapshot gets the cached CRC walk (a
// generation this replica already walked — its .verified sidecar matches
// size+mtime — skips the O(model) pass, the restart-fast path for big
// cached generations); a shard group's files are checked against the
// manifest's per-section CRCs as well.
func (f *Fetcher) verify(dir string, gen uint64) (promote func() error, err error) {
	if !f.opts.Sharded {
		path := store.GenPath(dir, gen)
		if err := store.VerifyV2FileCached(path); err != nil {
			return nil, err
		}
		return func() error {
			_, err := f.e.LoadGeneration(f.opts.Snapshot, path, f.opts.Vocab, gen)
			return err
		}, nil
	}
	man, err := shard.ReadManifest(shard.ManifestPath(dir, gen))
	if err != nil {
		return nil, err
	}
	k := f.opts.Shard
	if k >= man.Shards {
		return nil, fmt.Errorf("replica owns shard %d but the group has %d shards", k, man.Shards)
	}
	if err := shard.VerifyAgainstManifest(shard.GlobalPath(dir, gen), man.Global); err != nil {
		return nil, fmt.Errorf("global file: %w", err)
	}
	if err := shard.VerifyAgainstManifest(shard.ShardPath(dir, gen, k), man.Ranges[k].File); err != nil {
		return nil, fmt.Errorf("shard %d: %w", k, err)
	}
	return func() error {
		g, err := shard.OpenGroup(dir, man, k)
		if err != nil {
			return err
		}
		f.e.PromoteShardGroup(f.opts.Snapshot, g, f.opts.Vocab, gen)
		return nil
	}, nil
}

// download fetches url into path via a temp file and atomic rename.
func (f *Fetcher) download(url, path string) error {
	resp, err := f.opts.Client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("fetching %s: status %d", url, resp.StatusCode)
	}
	tmp, err := os.CreateTemp(f.opts.Dir, ".fetch-*")
	if err != nil {
		return err
	}
	_, err = io.Copy(tmp, resp.Body)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// pruneCache drops downloaded generations older than the newest Keep,
// each file together with its .verified sidecar. Gaps don't matter:
// retention lists the directory (the same discipline as the publisher's
// own pruning), and the file backing the live mapping stays valid even
// once unlinked.
func (f *Fetcher) pruneCache(latest uint64) {
	if latest <= uint64(f.opts.Keep) {
		return
	}
	cut := latest - uint64(f.opts.Keep)
	gens, err := f.scan(f.opts.Dir)
	if err != nil {
		return
	}
	for _, gen := range gens {
		if gen > cut {
			break
		}
		f.removeCached(gen)
	}
}

// removeCached deletes generation gen's files from the cache dir, each
// together with its .verified sidecar.
func (f *Fetcher) removeCached(gen uint64) {
	for _, gf := range f.files(f.opts.Dir, gen) {
		store.RemoveWithSidecar(gf.path)
	}
}

// warmFile reads the file once, sequentially, populating the page cache
// so the first queries against the freshly mapped snapshot don't pay
// cold-read latency mid-request. Plain io.Copy: *os.File implements
// WriterTo, so a caller-supplied copy buffer would be allocated and never
// used.
func warmFile(path string) error {
	fh, err := os.Open(path)
	if err != nil {
		return err
	}
	defer fh.Close()
	_, err = io.Copy(io.Discard, fh)
	return err
}
