package serve

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/shard"
	"repro/internal/store"
)

// publishGen writes a synthetic model as generation gen in dir.
func publishGen(t *testing.T, dir string, gen, seed uint64) string {
	t.Helper()
	m := SyntheticModel(20+int(seed), 5, 4, 120, seed)
	path := store.GenPath(dir, gen)
	if err := store.SaveV2(path, m); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestFetcherDirSource(t *testing.T) {
	pub := t.TempDir()
	e := NewMulti(Options{Mmap: true})
	defer e.Close()
	f, err := NewFetcher(e, FetchOptions{Source: pub, Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	// Empty publisher: a poll is a no-op, not an error.
	if gen, err := f.Poll(); gen != 0 || err != nil {
		t.Fatalf("poll of empty dir = %d, %v", gen, err)
	}

	publishGen(t, pub, 1, 1)
	if gen, err := f.Poll(); gen != 1 || err != nil {
		t.Fatalf("first poll = %d, %v; want 1", gen, err)
	}
	s, release, err := e.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if s.Generation != 1 || s.Model.NumUsers != 21 {
		t.Fatalf("serving generation %d with %d users, want 1 with 21", s.Generation, s.Model.NumUsers)
	}
	release()
	// Results carry the publisher generation.
	if res, err := e.Membership(0, 3); err != nil || res.Generation != 1 {
		t.Fatalf("membership generation = %+v, %v", res, err)
	}

	// Already current: nothing to do.
	if gen, err := f.Poll(); gen != 0 || err != nil {
		t.Fatalf("repeat poll = %d, %v; want 0 (current)", gen, err)
	}

	// A newer generation is picked up; the user count proves the swap.
	publishGen(t, pub, 2, 2)
	if gen, err := f.Poll(); gen != 2 || err != nil {
		t.Fatalf("poll after publish = %d, %v; want 2", gen, err)
	}
	if res, err := e.Membership(0, 3); err != nil || res.Generation != 2 {
		t.Fatalf("membership after rollover = %+v, %v", res, err)
	}

	// A corrupt generation is rejected by the CRC walk and the replica
	// keeps serving what it has — the failure is visible in Status.
	path := publishGen(t, pub, 3, 3)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-8] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if gen, err := f.Poll(); err == nil {
		t.Fatalf("corrupt generation promoted (gen=%d)", gen)
	}
	if res, err := e.Membership(0, 3); err != nil || res.Generation != 2 {
		t.Fatalf("replica left generation 2 after failed fetch: %+v, %v", res, err)
	}
	st := f.Status()
	if st.Generation != 2 || st.Fetches != 2 || st.Failures != 1 || st.LastError == "" {
		t.Fatalf("fetcher status = %+v", st)
	}
}

// TestFetcherHTTPSource drives the fetcher against the HTTP snapshot
// contract (a hand-rolled stand-in for stream.SnapshotServer, which this
// package cannot import without a cycle): manifest discovery, file
// download into the local cache, verification, promotion, and cache
// retention.
func TestFetcherHTTPSource(t *testing.T) {
	pub := t.TempDir()
	for gen := uint64(1); gen <= 4; gen++ {
		publishGen(t, pub, gen, gen)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/api/generations", func(w http.ResponseWriter, r *http.Request) {
		files, _ := store.ScanGenerations(pub)
		fmt.Fprintf(w, `{"generation": %d}`, files[len(files)-1].Generation)
	})
	mux.HandleFunc("/api/generations/file", func(w http.ResponseWriter, r *http.Request) {
		http.ServeFile(w, r, filepath.Join(pub, "gen-0000000"+r.URL.Query().Get("gen")+".v2.snap"))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	cache := t.TempDir()
	e := NewMulti(Options{Mmap: true})
	defer e.Close()
	f, err := NewFetcher(e, FetchOptions{Source: srv.URL, Dir: cache, Keep: 1})
	if err != nil {
		t.Fatal(err)
	}
	if gen, err := f.Poll(); gen != 4 || err != nil {
		t.Fatalf("http poll = %d, %v; want 4", gen, err)
	}
	if res, err := e.Membership(0, 3); err != nil || res.Generation != 4 {
		t.Fatalf("membership after http fetch = %+v, %v", res, err)
	}
	// Only the newest Keep generations stay in the local cache.
	files, err := store.ScanGenerations(cache)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0].Generation != 4 {
		t.Fatalf("local cache after retention: %+v, want only generation 4", files)
	}

	// A fetcher with an HTTP source but no cache dir is a config error.
	if _, err := NewFetcher(e, FetchOptions{Source: srv.URL}); err == nil {
		t.Fatal("HTTP source without a cache dir accepted")
	}
	// So is a shard-owning fetcher with a negative shard index.
	if _, err := NewFetcher(e, FetchOptions{Source: srv.URL, Dir: cache, Sharded: true, Shard: -1}); err == nil {
		t.Fatal("negative shard index accepted")
	}
}

// cacheNames lists the base names in dir, sorted.
func cacheNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ent := range ents {
		names = append(names, ent.Name())
	}
	sort.Strings(names)
	return names
}

// genParam parses the ?gen= parameter of a snapshot-file request.
func genParam(r *http.Request) uint64 {
	gen, _ := strconv.ParseUint(r.URL.Query().Get("gen"), 10, 64)
	return gen
}

// TestFetcherCacheRetentionRemovesSidecars polls generations 1..4 one at
// a time from an HTTP source with Keep 1: each poll prunes the previous
// generation, and its .verified sidecar must go with it.
func TestFetcherCacheRetentionRemovesSidecars(t *testing.T) {
	pub := t.TempDir()
	mux := http.NewServeMux()
	mux.HandleFunc("/api/generations", func(w http.ResponseWriter, r *http.Request) {
		files, _ := store.ScanGenerations(pub)
		fmt.Fprintf(w, `{"generation": %d}`, files[len(files)-1].Generation)
	})
	mux.HandleFunc("/api/generations/file", func(w http.ResponseWriter, r *http.Request) {
		http.ServeFile(w, r, store.GenPath(pub, genParam(r)))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	cache := t.TempDir()
	e := NewMulti(Options{Mmap: true})
	defer e.Close()
	f, err := NewFetcher(e, FetchOptions{Source: srv.URL, Dir: cache, Keep: 1})
	if err != nil {
		t.Fatal(err)
	}
	for gen := uint64(1); gen <= 4; gen++ {
		publishGen(t, pub, gen, gen)
		if got, err := f.Poll(); got != gen || err != nil {
			t.Fatalf("poll = %d, %v; want %d", got, err, gen)
		}
	}
	newest := filepath.Base(store.GenPath(cache, 4))
	want := []string{newest, newest + store.VerifiedSidecarSuffix}
	if got := cacheNames(t, cache); !reflect.DeepEqual(got, want) {
		t.Fatalf("cache after retention = %v, want %v", got, want)
	}
}

// TestFetcherRedownloadsCorruptCache: a download that fails verification
// must not stay in the cache. The source serves corrupt bytes for
// generation 1 once and the good bytes after that; the second poll must
// fetch again and promote, instead of re-verifying the bad cached copy.
func TestFetcherRedownloadsCorruptCache(t *testing.T) {
	pub := t.TempDir()
	good, err := os.ReadFile(publishGen(t, pub, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	var downloads atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("/api/generations", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"generation": 1}`)
	})
	mux.HandleFunc("/api/generations/file", func(w http.ResponseWriter, r *http.Request) {
		data := append([]byte(nil), good...)
		if downloads.Add(1) == 1 {
			data[len(data)-8] ^= 0xFF
		}
		w.Write(data)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	cache := t.TempDir()
	e := NewMulti(Options{Mmap: true})
	defer e.Close()
	f, err := NewFetcher(e, FetchOptions{Source: srv.URL, Dir: cache})
	if err != nil {
		t.Fatal(err)
	}
	if gen, err := f.Poll(); err == nil {
		t.Fatalf("corrupt download promoted (gen=%d)", gen)
	}
	if names := cacheNames(t, cache); len(names) != 0 {
		t.Fatalf("cache after a failed verify = %v, want empty", names)
	}
	if gen, err := f.Poll(); gen != 1 || err != nil {
		t.Fatalf("poll after the source healed = %d, %v; want 1", gen, err)
	}
	if n := downloads.Load(); n != 2 {
		t.Fatalf("%d downloads, want 2 (the corrupt copy re-fetched once)", n)
	}
	if res, err := e.Membership(0, 3); err != nil || res.Generation != 1 {
		t.Fatalf("membership after the re-fetch = %+v, %v", res, err)
	}
}

// TestFetcherShardedHTTPSource drives the shard-group pipeline against
// hand-rolled /api/shards* handlers: generations 1..3 are split into 3
// shards and polled one at a time with Keep 1 by the replica owning
// shard 1.
func TestFetcherShardedHTTPSource(t *testing.T) {
	src, pub := t.TempDir(), t.TempDir()
	mux := http.NewServeMux()
	mux.HandleFunc("/api/shards", func(w http.ResponseWriter, r *http.Request) {
		gens, _ := shard.ScanManifests(pub)
		fmt.Fprintf(w, `{"generation": %d}`, gens[len(gens)-1])
	})
	mux.HandleFunc("/api/shards/manifest", func(w http.ResponseWriter, r *http.Request) {
		http.ServeFile(w, r, shard.ManifestPath(pub, genParam(r)))
	})
	mux.HandleFunc("/api/shards/file", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("global") != "" {
			http.ServeFile(w, r, shard.GlobalPath(pub, genParam(r)))
			return
		}
		k, _ := strconv.Atoi(r.URL.Query().Get("shard"))
		http.ServeFile(w, r, shard.ShardPath(pub, genParam(r), k))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	const own = 1
	cache := t.TempDir()
	e := NewMulti(Options{Mmap: true})
	defer e.Close()
	f, err := NewFetcher(e, FetchOptions{Source: srv.URL, Dir: cache, Keep: 1, Sharded: true, Shard: own})
	if err != nil {
		t.Fatal(err)
	}
	var man *shard.Manifest
	for gen := uint64(1); gen <= 3; gen++ {
		if man, err = shard.Split(publishGen(t, src, gen, gen), pub, gen, shard.SplitOptions{Shards: 3}); err != nil {
			t.Fatal(err)
		}
		if got, err := f.Poll(); got != gen || err != nil {
			t.Fatalf("sharded poll = %d, %v; want %d", got, err, gen)
		}
	}

	r := man.Ranges[own]
	if res, err := e.Membership(r.UserLo, 3); err != nil || res.Generation != 3 {
		t.Fatalf("owned user %d: %+v, %v", r.UserLo, res, err)
	}
	var notOwned *ErrNotOwned
	if _, err := e.Membership(man.Ranges[0].UserLo, 3); !errors.As(err, &notOwned) {
		t.Fatalf("user outside shard %d answered %v, want ErrNotOwned", own, err)
	}

	var want []string
	for _, p := range []string{shard.GlobalPath(cache, 3), shard.ShardPath(cache, 3, own)} {
		want = append(want, filepath.Base(p), filepath.Base(p)+store.VerifiedSidecarSuffix)
	}
	want = append(want, filepath.Base(shard.ManifestPath(cache, 3)))
	sort.Strings(want)
	if got := cacheNames(t, cache); !reflect.DeepEqual(got, want) {
		t.Fatalf("cache after retention = %v, want %v", got, want)
	}
}
