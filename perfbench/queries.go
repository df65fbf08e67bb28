package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strconv"
	"strings"

	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/serve"
)

// readOps are the read kinds of scenario.DefaultMix; they are the first
// scenario.OpKind values, so an op kind indexes per-op tables directly.
var readOps = []scenario.OpKind{scenario.OpRank, scenario.OpMembership, scenario.OpDiffusion, scenario.OpFoldIn}

// querySpace bounds the ids a generated read may name. Membership and
// diffusion draw users from [userLo, userHi).
type querySpace struct {
	userLo, userHi         int
	words, topics, buckets int
}

// genReads draws n reads from scenario.DefaultMix (rank 4, membership 3,
// diffusion 2, fold-in 1), shaped like the load generator's defaults:
// two-word rank queries with k=10, k=5 memberships, fold-ins of two
// eight-word documents with ten sweeps.
func genReads(n int, seed uint64, sp querySpace) []*scenario.Request {
	mix := scenario.DefaultMix()
	weights := mix[:len(readOps)]
	r := rng.New(seed)
	user := func() int { return sp.userLo + r.Intn(sp.userHi-sp.userLo) }
	out := make([]*scenario.Request, n)
	for i := range out {
		req := &scenario.Request{Op: readOps[r.Categorical(weights)]}
		switch req.Op {
		case scenario.OpRank:
			req.Words = []int32{int32(r.Intn(sp.words)), int32(r.Intn(sp.words))}
			req.K = 10
		case scenario.OpMembership:
			req.U, req.K = user(), 5
		case scenario.OpDiffusion:
			req.U, req.V = user(), user()
			if req.V == req.U {
				req.V = sp.userLo + (req.V-sp.userLo+1)%(sp.userHi-sp.userLo)
			}
			req.Z, req.B = r.Intn(sp.topics), -1
			if sp.buckets > 0 {
				req.B = r.Intn(sp.buckets)
			}
		case scenario.OpFoldIn:
			docs := make([][]int32, 2)
			for d := range docs {
				docs[d] = make([]int32, 8)
				for j := range docs[d] {
					docs[d][j] = int32(r.Intn(sp.words))
				}
			}
			req.FoldIn = &serve.FoldInRequest{Docs: docs, Seed: r.Uint64(), Sweeps: 10}
		}
		out[i] = req
	}
	return out
}

// engineAnswer runs req in-process and returns its result with the
// process-local Version cleared, ready for comparison.
func engineAnswer(e *serve.Engine, req *scenario.Request) (any, error) {
	switch req.Op {
	case scenario.OpRank:
		res, err := e.Rank(req.Words, req.K)
		if err != nil {
			return nil, err
		}
		res.Version = 0
		return res, nil
	case scenario.OpMembership:
		res, err := e.Membership(req.U, req.K)
		if err != nil {
			return nil, err
		}
		res.Version = 0
		return res, nil
	case scenario.OpDiffusion:
		res, err := e.Diffusion(req.U, req.V, req.Z, req.B)
		if err != nil {
			return nil, err
		}
		res.Version = 0
		return res, nil
	default:
		res, err := e.FoldIn(req.FoldIn)
		if err != nil {
			return nil, err
		}
		res.Version = 0
		return res, nil
	}
}

// httpAnswer runs req against a serving endpoint (a router or a replica)
// and decodes the result with Version cleared.
func httpAnswer(client *http.Client, base string, req *scenario.Request) (any, error) {
	var resp *http.Response
	var err error
	var into any
	switch req.Op {
	case scenario.OpRank:
		ids := make([]string, len(req.Words))
		for i, w := range req.Words {
			ids[i] = strconv.Itoa(int(w))
		}
		into = &serve.RankResult{}
		resp, err = client.Get(fmt.Sprintf("%s/api/rank?w=%s&k=%d", base, strings.Join(ids, ","), req.K))
	case scenario.OpMembership:
		into = &serve.MembershipResult{}
		resp, err = client.Get(fmt.Sprintf("%s/api/user?id=%d&k=%d", base, req.U, req.K))
	case scenario.OpDiffusion:
		into = &serve.DiffusionResult{}
		resp, err = client.Get(fmt.Sprintf("%s/api/diffusion?u=%d&v=%d&topic=%d&bucket=%d", base, req.U, req.V, req.Z, req.B))
	default:
		body, merr := json.Marshal(req.FoldIn)
		if merr != nil {
			return nil, merr
		}
		into = &serve.FoldInResult{}
		resp, err = client.Post(base+"/api/foldin", "application/json", bytes.NewReader(body))
	}
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s answered status %d", req.Op, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", req.Op, err)
	}
	reflect.ValueOf(into).Elem().FieldByName("Version").SetUint(0)
	return into, nil
}

// sameAnswer reports whether two answers are bit-equal.
func sameAnswer(a, b any) bool { return reflect.DeepEqual(a, b) }
