package main

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/socialgraph"
	"repro/internal/synth"
)

// planted is one generated input: the graph, its vocabulary and the
// planted truth the detected communities are scored against.
type planted struct {
	cfg   synth.Config
	graph *socialgraph.Graph
	truth *synth.GroundTruth
	vocab *corpus.Vocabulary
}

// synthConfig is the scenario presets' "uniform" shape (flat degrees,
// near-equal community sizes, steady time) scaled to users and to
// |C*| = |Z*| = comms, with 30 vocabulary words per planted topic as in
// the presets. The intra-community friend degree is doubled to 18: at
// 3000 users and 64 communities a community has ~47 users where a preset
// has ~23, and 9 links there leave too little link evidence for the
// planted communities to be recovered within a few EM iterations.
func synthConfig(users, comms int, seed uint64) synth.Config {
	return synth.Config{
		Name: "perfbench", Seed: seed,
		Users: users, Communities: comms, Topics: comms,
		VocabSize:       30 * comms,
		DocsPerUserMean: 5, WordsPerDocMean: 6,
		FriendIntraDeg: 18, FriendInterDeg: 2,
		DiffLinks: 3 * users, CitesPerDoc: 1, CopyWords: true, NoiseDiff: 0.1,
		TimeBuckets: 24, SelfDiffBias: 3, SizeExponent: 0.05,
	}
}

func generate(users, comms int, seed uint64) (*planted, error) {
	cfg := synthConfig(users, comms, seed)
	g, gt := synth.Generate(cfg)
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("generated graph is invalid: %w", err)
	}
	if g.NumUsers != users {
		return nil, fmt.Errorf("generator dropped users (%d of %d left)", g.NumUsers, users)
	}
	return &planted{cfg: cfg, graph: g, truth: gt, vocab: synth.BuildVocabulary(cfg)}, nil
}

// trainConfig is the alias-sampler training run every workload uses,
// with Workers pinned to the host's CPU count and Rho = 1/|C|.
func trainConfig(comms, iters int, seed uint64) core.Config {
	return core.Config{
		NumCommunities: comms, NumTopics: comms,
		Rho:     1 / float64(comms),
		Sampler: core.SamplerAlias, EMIters: iters,
		Workers: runtime.NumCPU(), Seed: seed,
	}
}

// tokens counts the graph's word tokens, the E-step's unit of work.
func tokens(g *socialgraph.Graph) int {
	n := 0
	for _, d := range g.Docs {
		n += len(d.Words)
	}
	return n
}

// nmi scores the model's top community per user against the planted home
// communities.
func nmi(m *core.Model, p *planted) float64 {
	detected := make([]int32, m.NumUsers)
	for u := range detected {
		detected[u] = int32(m.TopCommunity(u))
	}
	return eval.NMI(detected, p.truth.HomeCommunity[:m.NumUsers])
}
