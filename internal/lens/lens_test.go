package lens

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/synth"
)

var (
	once sync.Once
	srv  http.Handler
	bare http.Handler // no vocabulary
)

func testServer(t *testing.T) (http.Handler, http.Handler) {
	t.Helper()
	once.Do(func() {
		cfg := synth.TwitterLike(150, 77)
		g, _ := synth.Generate(cfg)
		m, _, err := core.Train(g, core.Config{
			NumCommunities: 8, NumTopics: 10, EMIters: 8, Workers: 1,
			Seed: 2, Rho: 0.125,
		})
		if err != nil {
			panic(err)
		}
		srv = New(serve.New(m, synth.BuildVocabulary(cfg), serve.Options{}))
		bare = New(serve.New(m, nil, serve.Options{}))
	})
	return srv, bare
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestIndexPage(t *testing.T) {
	s, _ := testServer(t)
	rec := get(t, s, "/")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "SocialLens") {
		t.Fatalf("index: code=%d", rec.Code)
	}
	// The page reads serve's shapes: the ranking's entries, and the
	// community list sorted by size on the client.
	for _, want := range []string{".entries", "b.members-a.members"} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("index page does not read serve's shapes: missing %q", want)
		}
	}
	if get(t, s, "/nope").Code != http.StatusNotFound {
		t.Fatal("unknown path not 404")
	}
}

func TestCommunitiesEndpoint(t *testing.T) {
	s, _ := testServer(t)
	rec := get(t, s, "/api/communities")
	if rec.Code != http.StatusOK {
		t.Fatalf("code %d", rec.Code)
	}
	// serve's shape, in community-id order (the page sorts by size).
	var out []serve.CommunitySummary
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 8 {
		t.Fatalf("got %d communities", len(out))
	}
	total := 0
	for i, c := range out {
		if c.ID != i {
			t.Fatalf("community %d listed as id %d", i, c.ID)
		}
		total += c.Members
	}
	if total == 0 {
		t.Fatal("no community has members")
	}
}

func TestCommunityDetail(t *testing.T) {
	s, _ := testServer(t)
	rec := get(t, s, "/api/community?id=0")
	if rec.Code != http.StatusOK {
		t.Fatalf("code %d: %s", rec.Code, rec.Body.String())
	}
	var d map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if _, ok := d["topTopics"]; !ok {
		t.Fatal("detail missing topTopics")
	}
	if _, ok := d["outFlows"]; !ok {
		t.Fatal("detail missing outFlows")
	}
	for _, bad := range []string{"/api/community", "/api/community?id=99", "/api/community?id=x"} {
		if get(t, s, bad).Code != http.StatusBadRequest {
			t.Fatalf("%s not rejected", bad)
		}
	}
}

func TestRankEndpoint(t *testing.T) {
	s, b := testServer(t)
	// A real vocabulary word.
	rec := get(t, s, "/api/rank?q=network_00&k=3")
	if rec.Code != http.StatusOK {
		t.Fatalf("code %d: %s", rec.Code, rec.Body.String())
	}
	var out serve.RankResult
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Entries) != 3 {
		t.Fatalf("got %d results", len(out.Entries))
	}
	if get(t, s, "/api/rank").Code != http.StatusBadRequest {
		t.Fatal("empty query accepted")
	}
	if get(t, s, "/api/rank?q=zzzz-unknown").Code != http.StatusBadRequest {
		t.Fatal("unknown word accepted")
	}
	if get(t, b, "/api/rank?q=x").Code != http.StatusNotImplemented {
		t.Fatal("vocab-less rank should be 501")
	}
}

func TestStatsEndpoint(t *testing.T) {
	s, _ := testServer(t)
	rec := get(t, s, "/api/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("code %d", rec.Code)
	}
	var stats serve.StatsReport
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if _, ok := stats.Endpoints["rank"]; !ok {
		t.Fatal("stats missing rank endpoint")
	}
}

func TestGraphEndpoint(t *testing.T) {
	s, _ := testServer(t)
	rec := get(t, s, "/api/graph")
	if rec.Code != http.StatusOK {
		t.Fatalf("code %d", rec.Code)
	}
	var dg map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &dg); err != nil {
		t.Fatal(err)
	}
	if dg["Edges"] == nil {
		t.Fatal("graph missing edges")
	}
	dot := get(t, s, "/api/graph?topic=0&format=dot")
	if dot.Code != http.StatusOK || !strings.HasPrefix(dot.Body.String(), "digraph") {
		t.Fatalf("dot export: code=%d", dot.Code)
	}
	if get(t, s, "/api/graph?topic=999").Code != http.StatusBadRequest {
		t.Fatal("bad topic accepted")
	}
}
