// Package scenario is the workload harness: named, seeded presets that
// stress the trainer and the serving engine across the regimes the paper's
// evaluation spans — power-law vs. uniform degree, overlapping vs. disjoint
// communities, Zipfian vs. flat vocabularies, bursty vs. steady diffusion —
// plus the degenerate cases a production service meets (isolated users,
// single-word documents, spam-dominated vocabularies, one giant community).
//
// Each preset expands to a graph + vocabulary + ground-truth bundle through
// internal/synth, a matching training configuration, and per-scenario
// regression floors. On top of the presets sit four consumers:
//
//   - Run (runner.go): the deterministic end-to-end regression check —
//     train → binary snapshot → serve.Engine → query (library and HTTP
//     surface) — verifying ground-truth recovery (NMI), fold-in
//     determinism, rank-index/full-scan agreement and snapshot round-trip
//     equality, with golden metric files (golden.go) for drift detection;
//   - RunStream (streaming.go, StreamPresets): the write path — a base
//     model trained on part of a preset, the rest ingested as journal
//     events under a read hammer — verifying one-cycle freshness,
//     incremental publishes equal to a shadow full rebuild, and replay
//     equal to batch fold-in;
//   - RunFleet (fleet.go, FleetPresets): the routed fleet — a publisher,
//     fetcher-fed replicas holding full files or one shard each, and the
//     router — verifying routed answers equal a single full node's on both
//     sides of a live generation rollout;
//   - LoadGen (loadgen.go): the query traffic generator behind
//     cmd/cpd-loadgen, replaying configurable rank/membership/diffusion/
//     fold-in mixes against an engine or a live HTTP endpoint.
//
// cmd/cpd-synth resolves -scenario names through this registry, so the CLI
// and the test suite share one generator path.
package scenario

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/socialgraph"
	"repro/internal/synth"
)

// Preset names one workload regime: the planted generative configuration,
// the training configuration the regression suite uses against it, and the
// per-scenario quality floors the end-to-end check enforces.
type Preset struct {
	Name        string
	Description string

	// Synth is the planted generative process (seed included).
	Synth synth.Config
	// Train is the regression suite's training configuration. Workers is
	// fixed at 2 — training is bit-identical for every worker count, so
	// the value only shapes wall-clock.
	Train core.Config

	// MinNMI is the floor on normalized mutual information between
	// detected top communities and the planted home communities.
	// Adversarial presets keep intentionally low floors: the invariant
	// there is that the pipeline survives, not that it wins.
	MinNMI float64
	// MinDiffusionAUC is the floor on held-in diffusion-link AUC
	// (0 skips the check — e.g. presets with too few diffusion links).
	MinDiffusionAUC float64
}

// regressionScale is the shared small scale of the regression presets:
// big enough for planted structure to be recoverable, small enough that
// the full suite trains every preset in seconds.
func regressionScale(name string, seed uint64) synth.Config {
	return synth.Config{
		Name: name, Seed: seed,
		Users: 140, Communities: 6, Topics: 8,
		VocabSize:       240,
		DocsPerUserMean: 5, WordsPerDocMean: 6,
		FriendIntraDeg: 9, FriendInterDeg: 2,
		DiffLinks: 420, CitesPerDoc: 1, CopyWords: true, NoiseDiff: 0.1,
		TimeBuckets: 24, PopularityBurst: true,
		SelfDiffBias: 3,
	}
}

func regressionTrain(seed uint64) core.Config {
	return core.Config{
		NumCommunities: 6, NumTopics: 8,
		EMIters: 14, Workers: 2, Seed: seed, Rho: 1.0 / 6,
	}
}

func preset(name, desc string, minNMI, minAUC float64, seed uint64, tweak func(*synth.Config)) Preset {
	cfg := regressionScale(name, seed)
	if tweak != nil {
		tweak(&cfg)
	}
	return Preset{
		Name: name, Description: desc,
		Synth: cfg, Train: regressionTrain(seed + 1),
		MinNMI: minNMI, MinDiffusionAUC: minAUC,
	}
}

// presets is the registry, in display order. Seeds are fixed and distinct
// so every preset is reproducible in isolation.
var presets = []Preset{
	preset("uniform",
		"flat Poisson degrees, near-equal community sizes, steady time, flat vocabulary",
		0.45, 0.60, 101, func(c *synth.Config) {
			c.SizeExponent = 0.05
			c.PopularityBurst = false
		}),
	preset("power-law",
		"Pareto degree multipliers and Zipf community sizes — the Twitter-shaped regime",
		0.45, 0.60, 102, func(c *synth.Config) {
			c.DegreeExponent = 1.2
			c.SizeExponent = 1.0
		}),
	preset("overlapping",
		"memberships split nearly evenly across two communities per user",
		0.35, 0.60, 103, func(c *synth.Config) {
			c.HomeWeight = 0.50
		}),
	preset("disjoint",
		"near-hard memberships: 93% of each user's mass on one community",
		0.45, 0.60, 104, func(c *synth.Config) {
			c.HomeWeight = 0.93
		}),
	preset("zipf-vocab",
		"word frequencies skewed by (w+1)^-1: a natural-language-shaped vocabulary",
		0.50, 0.60, 105, func(c *synth.Config) {
			c.VocabZipf = 1.0
		}),
	preset("bursty",
		"topic-popularity bursts concentrated in 12 buckets, dense retweet cascades",
		0.55, 0.60, 106, func(c *synth.Config) {
			c.TimeBuckets = 12
			c.DiffLinks = 700
			c.NoiseDiff = 0.05
		}),
	preset("steady",
		"no popularity bursts: timestamps uniform, diffusion driven by profiles alone",
		0.40, 0.55, 107, func(c *synth.Config) {
			c.PopularityBurst = false
		}),
	preset("citation-web",
		"symmetric co-authorship links and multi-source citing documents (DBLP-shaped)",
		0.40, 0.55, 108, func(c *synth.Config) {
			c.Symmetric = true
			c.CitesPerDoc = 4
			c.CopyWords = false
			c.FriendIntraDeg = 4
			c.FriendInterDeg = 1
			c.DiffLinks = 300
		}),
	preset("isolated-users",
		"adversarial: 35% of users publish but hold no friendship links at all",
		0.30, 0.60, 109, func(c *synth.Config) {
			c.IsolatedFraction = 0.35
		}),
	preset("sparse-docs",
		"adversarial: one document per user, down to a single word each",
		0.30, 0.55, 110, func(c *synth.Config) {
			c.DocsPerUserMean = 1
			c.WordsPerDocMean = 2
			c.MinWordsPerDoc = 1
		}),
	preset("spam-vocab",
		"adversarial: half of every topic's probability mass on 12 shared spam words",
		0.40, 0.55, 111, func(c *synth.Config) {
			c.SpamWords = 12
			c.SpamMass = 0.5
		}),
	preset("giant-community",
		"adversarial: Zipf exponent 3 collapses almost everyone into one community",
		0.05, 0.55, 112, func(c *synth.Config) {
			c.SizeExponent = 3.0
		}),
	preset("noisy-graph",
		"structure-blind: friendship links near community-agnostic, only content separates communities — where the joint model beats pure label propagation",
		0.15, 0.55, 114, func(c *synth.Config) {
			c.FriendIntraDeg = 3
			c.FriendInterDeg = 8
		}),
	largeScale(),
}

// largeScale is the scale-out preset: 5x the users and ~8x the vocabulary
// of the regression scale, with heavy-tailed degrees — big enough that
// the v2 mapped serving path (which every scenario run exercises) covers
// multi-megabyte matrix sections, while EM iterations are trimmed so the
// full suite stays fast.
func largeScale() Preset {
	p := preset("large-scale",
		"production-shaped: 700 users, 2000-word vocabulary, Pareto degrees; exercises the mapped v2 serving path at scale",
		0.30, 0.55, 113, func(c *synth.Config) {
			c.Users = 700
			c.VocabSize = 2000
			c.DocsPerUserMean = 4
			c.FriendIntraDeg = 7
			c.DiffLinks = 1500
			c.DegreeExponent = 1.1
			c.SizeExponent = 0.8
		})
	p.Train.EMIters = 8
	return p
}

// All returns the preset registry in display order (a copy).
func All() []Preset {
	out := make([]Preset, len(presets))
	copy(out, presets)
	return out
}

// Names returns the sorted preset names.
func Names() []string {
	names := make([]string, len(presets))
	for i, p := range presets {
		names[i] = p.Name
	}
	sort.Strings(names)
	return names
}

// Lookup resolves a preset by name.
func Lookup(name string) (Preset, error) {
	return lookup("preset", presets, name, func(p Preset) string { return p.Name })
}

// lookup resolves name in one preset registry; kind labels the error,
// which lists the registry's names sorted.
func lookup[P any](kind string, registry []P, name string, nameOf func(P) string) (P, error) {
	names := make([]string, len(registry))
	for i, p := range registry {
		if nameOf(p) == name {
			return p, nil
		}
		names[i] = nameOf(p)
	}
	sort.Strings(names)
	var zero P
	return zero, fmt.Errorf("scenario: unknown %s %q (have %v)", kind, name, names)
}

// Bundle is one expanded scenario: the graph, its themed vocabulary, and
// the planted ground truth.
type Bundle struct {
	Preset Preset
	Graph  *socialgraph.Graph
	Vocab  *corpus.Vocabulary
	Truth  *synth.GroundTruth
}

// Build expands a preset into its graph + vocabulary + ground-truth
// bundle. The result is deterministic per preset; the graph is validated
// before it is returned, and the generator must not have dropped users
// (ground-truth alignment depends on stable user ids).
func Build(p Preset) (*Bundle, error) {
	g, gt := synth.Generate(p.Synth)
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("scenario %s: generator produced an invalid graph: %w", p.Name, err)
	}
	if g.NumUsers != p.Synth.Users {
		return nil, fmt.Errorf("scenario %s: generator dropped users (%d of %d left), ground truth misaligned",
			p.Name, g.NumUsers, p.Synth.Users)
	}
	return &Bundle{Preset: p, Graph: g, Vocab: synth.BuildVocabulary(p.Synth), Truth: gt}, nil
}
