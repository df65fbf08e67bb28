package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/shard"
)

// Handler exposes the routed query surface. Paths and parameters mirror
// serve.APIHandler exactly, so any cpd-serve client — cpd-loadgen
// included — can point at a router base URL unchanged:
//
//	GET  /api/user?id=42&k=5      owner-routed membership (shard-aware)
//	GET  /api/pirow?id=42         owner-routed membership row (shard-aware)
//	POST /api/foldin              owner-routed fold-in (?user=K overrides the seed-derived key;
//	                              friend rows hydrated from owners on sharded fleets)
//	GET  /api/rank?w=17,204&k=10  scatter-gather, partial top-K merge (Members summed across shards)
//	GET  /api/diffusion?...       scatter-gather, freshest answer (row-hydrated on sharded fleets)
//	GET  /api/communities         freshest-replica proxy
//	GET  /api/community?id=3      freshest-replica proxy
//	GET  /api/quality             freshest-replica proxy
//	GET  /api/generation          fleet generation view
//	GET  /api/stats               per-replica health/generation/lag + endpoint latency
//	GET  /metrics                 Prometheus text exposition
//	GET  /healthz                 liveness + fleet summary
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/user", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.URL.Query().Get("id"), 10, 64)
		if err != nil {
			http.Error(w, "bad or missing user id", http.StatusBadRequest)
			return
		}
		rt.routeToOwner(w, r, rt.userChain(id), nil)
	})
	mux.HandleFunc("/api/pirow", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.URL.Query().Get("id"), 10, 64)
		if err != nil {
			http.Error(w, "bad or missing user id", http.StatusBadRequest)
			return
		}
		rt.routeToOwner(w, r, rt.userChain(id), nil)
	})
	mux.HandleFunc("/api/foldin", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST a FoldInRequest", http.StatusMethodNotAllowed)
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// Fold-in requests carry no user id (the user is by definition
		// unseen), so the routing key is the caller's ?user= hint when
		// given, else the request seed — deterministic either way, so
		// retries of the same request land on the same replica's warm
		// cache.
		var key uint64
		if u := r.URL.Query().Get("user"); u != "" {
			id, err := strconv.ParseInt(u, 10, 64)
			if err != nil {
				http.Error(w, "bad user routing hint", http.StatusBadRequest)
				return
			}
			key = uint64(id)
		} else {
			var req struct {
				Seed uint64 `json:"seed"`
			}
			if err := json.Unmarshal(body, &req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			key = req.Seed
		}
		// On a sharded fleet no single replica owns every friend's Pi
		// row, so the router hydrates the rows from the owning replicas
		// and ships them with the request. The backend ignores hydrated
		// rows for friends it owns, so the answer stays bit-identical to
		// a full node regardless of which replica serves it.
		if rt.fleetSharded() {
			hydrated, err := rt.hydrateFriendRows(r, body)
			if err != nil {
				http.Error(w, "router: "+err.Error(), http.StatusBadGateway)
				return
			}
			body = hydrated
		}
		rt.routeToOwner(w, r, rt.owners(key), body)
	})
	mux.HandleFunc("/api/rank", rt.rankHandler)
	mux.HandleFunc("/api/diffusion", rt.diffusionHandler)
	for _, path := range []string{"/api/communities", "/api/community", "/api/quality"} {
		mux.HandleFunc(path, rt.proxyFreshest)
	}
	mux.HandleFunc("/api/generation", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, serve.GenerationReport{Generation: rt.maxGeneration()})
	})
	mux.HandleFunc("/api/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, rt.Stats())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		rt.WriteMetrics(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		st := rt.Stats()
		writeJSON(w, map[string]any{
			"status":     "ok",
			"replicas":   len(st.Replicas),
			"healthy":    st.Healthy,
			"generation": st.Generation,
		})
	})
	return mux
}

// attempt sends one backend request; body non-nil replays a buffered
// POST body. It returns the backend response with its body UNREAD.
func (rt *Router) attempt(r *replica, req *http.Request, body []byte) (*http.Response, error) {
	url := r.base + req.URL.Path
	if req.URL.RawQuery != "" {
		url += "?" + req.URL.RawQuery
	}
	var rdr io.Reader
	if body != nil {
		rdr = bytes.NewReader(body)
	}
	out, err := http.NewRequestWithContext(req.Context(), req.Method, url, rdr)
	if err != nil {
		return nil, err
	}
	if ct := req.Header.Get("Content-Type"); ct != "" {
		out.Header.Set("Content-Type", ct)
	}
	r.requests.Add(1)
	resp, err := rt.opts.Client.Do(out)
	if err != nil {
		r.fail(err)
		return nil, err
	}
	r.ok()
	return resp, nil
}

// failover sends req down the given preference chain in three
// tiers: healthy non-draining replicas first in chain order, then healthy
// draining ones (a fully-draining fleet must still answer), and only if
// every healthy attempt failed at transport level do the unhealthy ones
// get a recovery try. It returns the first HTTP answer with its body
// UNREAD — except 421 (Misdirected Request: the replica disowns the user,
// its shard moved under the router's topology view), which counts as a
// misroute and falls through to the next candidate. When nothing else
// answered, resp is nil and misBody holds the last 421 body, if any.
func (rt *Router) failover(req *http.Request, chain []*replica, body []byte) (resp *http.Response, misBody []byte) {
	for pass := 0; pass < 3; pass++ {
		for _, r := range chain {
			healthy, draining := r.healthy.Load(), r.draining.Load()
			var want bool
			switch pass {
			case 0:
				want = healthy && !draining
			case 1:
				want = healthy && draining
			default:
				want = !healthy
			}
			if !want {
				continue
			}
			resp, err := rt.attempt(r, req, body)
			if err != nil {
				continue
			}
			if resp.StatusCode == http.StatusMisdirectedRequest {
				r.misroutes.Add(1)
				misBody, _ = io.ReadAll(io.LimitReader(resp.Body, 1<<16))
				resp.Body.Close()
				continue
			}
			return resp, nil
		}
	}
	return nil, misBody
}

// routeToOwner relays the owner chain's answer (failover) to the client
// verbatim, streaming the body.
func (rt *Router) routeToOwner(w http.ResponseWriter, req *http.Request, chain []*replica, body []byte) {
	start := time.Now()
	var reqErr error
	defer func() { rt.lat[opRoute].Observe(time.Since(start), reqErr) }()
	resp, misBody := rt.failover(req, chain, body)
	switch {
	case resp != nil:
		relay(w, resp)
	case misBody != nil:
		// Every candidate disowned the user: relay the misroute so the
		// client sees why instead of a generic 502.
		reqErr = fmt.Errorf("all candidates misrouted")
		relayBytes(w, http.StatusMisdirectedRequest, misBody)
	default:
		reqErr = fmt.Errorf("no replica reachable")
		http.Error(w, "router: no replica reachable for key", http.StatusBadGateway)
	}
}

// relay copies a backend response to the client.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// proxyFreshest relays to the replica serving the newest generation,
// failing over down the freshness order with failover's tiering.
func (rt *Router) proxyFreshest(w http.ResponseWriter, req *http.Request) {
	start := time.Now()
	var reqErr error
	defer func() { rt.lat[opProxy].Observe(time.Since(start), reqErr) }()
	order := append([]*replica(nil), rt.replicas...)
	sort.SliceStable(order, func(i, j int) bool {
		return order[i].generation.Load() > order[j].generation.Load()
	})
	if resp, _ := rt.failover(req, order, nil); resp != nil {
		relay(w, resp)
		return
	}
	reqErr = fmt.Errorf("no replica reachable")
	http.Error(w, "router: no replica reachable", http.StatusBadGateway)
}

// gathered is one replica's scatter response.
type gathered struct {
	r      *replica
	status int
	body   []byte
}

// scatter fans the request out to the healthy replicas (all of them when
// none are marked healthy — a cold or fully-degraded fleet must still
// try) and gathers whatever answers. Transport failures mark the replica
// unhealthy and drop out; the gather proceeds with the rest — losing a
// replica mid-scatter degrades redundancy, not availability.
func (rt *Router) scatter(req *http.Request) []gathered {
	targets := make([]*replica, 0, len(rt.replicas))
	for _, r := range rt.replicas {
		if r.healthy.Load() {
			targets = append(targets, r)
		}
	}
	if len(targets) == 0 {
		targets = rt.replicas
	}
	results := make([]gathered, len(targets))
	var wg sync.WaitGroup
	for i, r := range targets {
		wg.Add(1)
		go func(i int, r *replica) {
			defer wg.Done()
			resp, err := rt.attempt(r, req, nil)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				r.fail(err)
				return
			}
			results[i] = gathered{r: r, status: resp.StatusCode, body: body}
		}(i, r)
	}
	wg.Wait()
	out := results[:0]
	for _, g := range results {
		if g.r != nil {
			out = append(out, g)
		}
	}
	return out
}

// scatterCall is one in-flight shared scatter: followers block on done
// and read results (which they must treat as read-only — the bodies are
// shared across every request on the flight).
type scatterCall struct {
	done    chan struct{}
	results []gathered
}

// scatterShared is scatter behind a singleflight: concurrent requests
// for the same method, path and (canonicalised) query share one fleet
// fan-out instead of multiplying backend load — under a thundering herd
// of identical rank/diffusion queries the fleet sees one request per
// replica, not one per client. Scatter answers depend only on the query
// and the replicas' published generation, so every caller on the flight
// would have received the same gather anyway; the leader detaches from
// its own request's cancellation, so a leader whose client hangs up
// still completes the flight for its followers. A follower whose own
// context dies stops waiting and returns nil (degraded response).
func (rt *Router) scatterShared(req *http.Request) []gathered {
	key := req.Method + " " + req.URL.Path + "?" + req.URL.Query().Encode()
	rt.sfMu.Lock()
	if c, ok := rt.sfCalls[key]; ok {
		rt.sfMu.Unlock()
		rt.sharedScatters.Add(1)
		select {
		case <-c.done:
			return c.results
		case <-req.Context().Done():
			return nil
		}
	}
	c := &scatterCall{done: make(chan struct{})}
	rt.sfCalls[key] = c
	rt.sfMu.Unlock()
	c.results = rt.scatter(req.WithContext(context.WithoutCancel(req.Context())))
	rt.sfMu.Lock()
	delete(rt.sfCalls, key)
	rt.sfMu.Unlock()
	close(c.done)
	return c.results
}

// respondDegraded relays the most useful non-success the gather
// produced: the first HTTP error any replica returned (they agree on
// semantic errors like a bad word id), else 502.
func respondDegraded(w http.ResponseWriter, results []gathered, reqErr *error) {
	for _, g := range results {
		if g.status != 0 {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			w.WriteHeader(g.status)
			w.Write(g.body)
			return
		}
	}
	*reqErr = fmt.Errorf("no replica answered")
	http.Error(w, "router: no replica answered the scatter", http.StatusBadGateway)
}

func (rt *Router) rankHandler(w http.ResponseWriter, req *http.Request) {
	start := time.Now()
	var reqErr error
	defer func() { rt.lat[opScatter].Observe(time.Since(start), reqErr) }()
	results := rt.scatterShared(req)
	var answers []*serve.RankResult
	var infos []*shard.Info
	for _, g := range results {
		if g.status != http.StatusOK {
			continue
		}
		var res serve.RankResult
		if err := json.Unmarshal(g.body, &res); err != nil {
			continue
		}
		g.r.generation.Store(res.Generation)
		answers = append(answers, &res)
		infos = append(infos, g.r.shard.Load())
	}
	if len(answers) == 0 {
		respondDegraded(w, results, &reqErr)
		return
	}
	k := intParam(req, "k", 10)
	if merged, ok := mergeRankSharded(answers, infos, k); ok {
		writeJSON(w, merged)
		return
	}
	writeJSON(w, mergeRank(answers, k))
}

// mergeRankSharded merges rank answers from shard-owning replicas: the
// entry lists and scores are identical across shards (ranking reads only
// global sections), but each shard's Members counts only its own user
// range — the fleet-wide count is their sum. The merge takes the newest
// generation with FULL shard coverage (one answer per shard index; a
// partial sum would silently under-count members) and sums Members per
// community across one representative answer per shard. Returns ok=false
// when no answer carries shard info or no generation has full coverage —
// the caller then falls back to the unsharded merge.
func mergeRankSharded(answers []*serve.RankResult, infos []*shard.Info, k int) (*serve.RankResult, bool) {
	// gen → shard index → representative answer for that shard.
	byGen := map[uint64]map[int]*serve.RankResult{}
	count := 0
	for i, a := range answers {
		in := infos[i]
		if in == nil || in.Count <= 0 {
			continue
		}
		count = in.Count
		m := byGen[a.Generation]
		if m == nil {
			m = map[int]*serve.RankResult{}
			byGen[a.Generation] = m
		}
		if _, dup := m[in.Index]; !dup {
			m[in.Index] = a
		}
	}
	if count == 0 {
		return nil, false
	}
	var gens []uint64
	for g, m := range byGen {
		if len(m) == count {
			gens = append(gens, g)
		}
	}
	if len(gens) == 0 {
		return nil, false
	}
	best := gens[0]
	for _, g := range gens[1:] {
		if g > best {
			best = g
		}
	}
	shards := byGen[best]
	rep := shards[0]
	if rep == nil { // coverage is full but index 0 missing ⇒ inconsistent infos
		return nil, false
	}
	merged := &serve.RankResult{Generation: best}
	for _, e := range rep.Entries {
		sum := 0
		for _, a := range shards {
			for _, ae := range a.Entries {
				if ae.Community == e.Community {
					sum += ae.Members
					break
				}
			}
		}
		e.Members = sum
		merged.Entries = append(merged.Entries, e)
	}
	if k > 0 && len(merged.Entries) > k {
		merged.Entries = merged.Entries[:k]
	}
	return merged, true
}

func (rt *Router) diffusionHandler(w http.ResponseWriter, req *http.Request) {
	if req.Method == http.MethodGet && rt.fleetSharded() {
		rt.diffusionSharded(w, req)
		return
	}
	start := time.Now()
	var reqErr error
	defer func() { rt.lat[opScatter].Observe(time.Since(start), reqErr) }()
	results := rt.scatterShared(req)
	var best *serve.DiffusionResult
	for _, g := range results {
		if g.status != http.StatusOK {
			continue
		}
		var res serve.DiffusionResult
		if err := json.Unmarshal(g.body, &res); err != nil {
			continue
		}
		g.r.generation.Store(res.Generation)
		// Freshest generation wins; within one generation every replica's
		// answer is bit-identical, so any representative will do.
		if best == nil || res.Generation > best.Generation {
			r := res
			best = &r
		}
	}
	if best == nil {
		respondDegraded(w, results, &reqErr)
		return
	}
	best.Version = 0 // process-local backend counter; meaningless here
	writeJSON(w, best)
}

// mergeRank is the partial top-K merge: entries from the freshest
// generation represented among the answers, deduplicated per community
// keeping the best score, ordered score-descending with community id
// ascending on ties — exactly the order mathx.TopKIndices produces on a
// single node, so a merge over replicas serving the same generation is
// bit-identical to that single node's answer. Answers from older
// generations are dropped, never mixed: a torn merge across generations
// could rank communities by incomparable scores.
func mergeRank(answers []*serve.RankResult, k int) *serve.RankResult {
	var maxGen uint64
	for _, a := range answers {
		if a.Generation > maxGen {
			maxGen = a.Generation
		}
	}
	best := map[int]serve.RankEntry{}
	for _, a := range answers {
		if a.Generation != maxGen {
			continue
		}
		for _, e := range a.Entries {
			if cur, ok := best[e.Community]; !ok || e.Score > cur.Score {
				best[e.Community] = e
			}
		}
	}
	merged := &serve.RankResult{Generation: maxGen}
	for _, e := range best {
		merged.Entries = append(merged.Entries, e)
	}
	sort.Slice(merged.Entries, func(i, j int) bool {
		a, b := merged.Entries[i], merged.Entries[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		return a.Community < b.Community
	})
	if k > 0 && len(merged.Entries) > k {
		merged.Entries = merged.Entries[:k]
	}
	return merged
}

// diffusionSharded scores a diffusion query on a sharded fleet. When one
// shard owns both endpoints the query forwards to that shard's owner
// chain unchanged (both rows local — the exact single-node computation).
// A cross-shard pair fetches v's membership row from its owning replica
// (/api/pirow) and POSTs the row-carrying variant to u's owner; a
// generation mismatch between the row and the scoring replica — a
// rollout racing the query — retries up to three times rather than mix
// rows from two generations. Either way the answer's process-local
// version is zeroed, as on the scatter path.
func (rt *Router) diffusionSharded(w http.ResponseWriter, req *http.Request) {
	start := time.Now()
	var reqErr error
	defer func() { rt.lat[opScatter].Observe(time.Since(start), reqErr) }()
	q := req.URL.Query()
	u, err1 := strconv.Atoi(q.Get("u"))
	v, err2 := strconv.Atoi(q.Get("v"))
	z, err3 := strconv.Atoi(q.Get("topic"))
	if err1 != nil || err2 != nil || err3 != nil {
		http.Error(w, "u, v and topic are required integers", http.StatusBadRequest)
		return
	}
	bucket := intParam(req, "bucket", -1)
	chain := rt.userChain(int64(u))
	in := chain[0].shard.Load()
	sameShard := in != nil && in.Owns(u) && in.Owns(v)
	for try := 0; try < 3; try++ {
		method, path, body := http.MethodGet, req.URL.Path+"?"+req.URL.RawQuery, []byte(nil)
		var rowGen uint64
		if !sameShard {
			vres, err := rt.fetchPiRow(req.Context(), int64(v))
			if err != nil {
				reqErr = err
				http.Error(w, "router: "+err.Error(), http.StatusBadGateway)
				return
			}
			rowGen = vres.Generation
			body, err = json.Marshal(serve.DiffusionRowsRequest{U: u, V: v, Topic: z, Bucket: bucket, VRow: vres.Row})
			if err != nil {
				reqErr = err
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			method, path = http.MethodPost, "/api/diffusion"
		}
		status, respBody, err := rt.ownerFetch(req.Context(), chain, method, path, body)
		if err != nil {
			reqErr = err
			http.Error(w, "router: "+err.Error(), http.StatusBadGateway)
			return
		}
		if status != http.StatusOK {
			relayBytes(w, status, respBody)
			return
		}
		var res serve.DiffusionResult
		if err := json.Unmarshal(respBody, &res); err != nil {
			reqErr = err
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		if sameShard || res.Generation == rowGen {
			res.Version = 0 // process-local backend counter; meaningless here
			writeJSON(w, &res)
			return
		}
		// Generations diverged between the row fetch and the scoring
		// replica; refetch against the (presumably settled) fleet.
	}
	reqErr = fmt.Errorf("generation mismatch persisted")
	http.Error(w, "router: generation mismatch across shards persisted after retries", http.StatusBadGateway)
}

// hydrateFriendRows parses a fold-in body, fetches a membership row for
// every listed friend from the friend's owning replica, and returns the
// body with FriendRows filled in. Rows are refetched until they all come
// from one generation (three attempts) — a fold-in must not see two
// friends from different model generations.
func (rt *Router) hydrateFriendRows(req *http.Request, body []byte) ([]byte, error) {
	var fr serve.FoldInRequest
	if err := json.Unmarshal(body, &fr); err != nil {
		return nil, fmt.Errorf("parsing fold-in request: %w", err)
	}
	if len(fr.Friends) == 0 {
		return body, nil
	}
	for try := 0; try < 3; try++ {
		rows := make([]serve.FriendRow, len(fr.Friends))
		var gen uint64
		consistent := true
		for i, friend := range fr.Friends {
			res, err := rt.fetchPiRow(req.Context(), int64(friend))
			if err != nil {
				return nil, fmt.Errorf("hydrating friend %d: %w", friend, err)
			}
			if i == 0 {
				gen = res.Generation
			} else if res.Generation != gen {
				consistent = false
				break
			}
			rows[i] = serve.FriendRow{User: friend, Row: res.Row}
		}
		if !consistent {
			continue
		}
		fr.FriendRows = rows
		return json.Marshal(&fr)
	}
	return nil, fmt.Errorf("friend rows kept straddling generations")
}

// fetchPiRow fetches one user's membership row from the user's owning
// replica chain.
func (rt *Router) fetchPiRow(ctx context.Context, user int64) (*serve.PiRowResult, error) {
	status, body, err := rt.ownerFetch(ctx, rt.userChain(user), http.MethodGet, "/api/pirow?id="+strconv.FormatInt(user, 10), nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("pirow for user %d answered status %d: %s", user, status, bytes.TrimSpace(body))
	}
	var res serve.PiRowResult
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// ownerFetch sends one synthesized request down a preference chain
// (failover) and returns the answer, read fully. If every candidate
// misroutes, the last 421 is returned so the caller sees why.
func (rt *Router) ownerFetch(ctx context.Context, chain []*replica, method, pathAndQuery string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, "http://router.invalid"+pathAndQuery, nil)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, misBody := rt.failover(req, chain, body)
	if resp == nil {
		if misBody != nil {
			return http.StatusMisdirectedRequest, misBody, nil
		}
		return 0, nil, fmt.Errorf("no replica reachable")
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("reading owner response: %w", err)
	}
	return resp.StatusCode, b, nil
}

// relayBytes writes an already-read backend response to the client.
func relayBytes(w http.ResponseWriter, status int, body []byte) {
	if status == http.StatusOK {
		w.Header().Set("Content-Type", "application/json")
	} else {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	w.WriteHeader(status)
	w.Write(body)
}

func (rt *Router) getJSON(r *replica, path string, v any) error {
	resp, err := rt.opts.Client.Get(r.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("%s%s answered status %d", r.base, path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func intParam(r *http.Request, name string, def int) int {
	if s := r.URL.Query().Get(name); s != "" {
		if v, err := strconv.Atoi(s); err == nil {
			return v
		}
	}
	return def
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
