package scenario

import (
	"testing"
	"time"
)

// fleetPresets returns the registered fleet presets of one kind: the
// shard-owning fleets when sharded is set, the full-replica ones otherwise.
func fleetPresets(sharded bool) []FleetPreset {
	var out []FleetPreset
	for _, p := range FleetPresets() {
		if (p.Shards > 0) == sharded {
			out = append(out, p)
		}
	}
	return out
}

// checkFleetRegistry checks the registered presets of one kind: at least
// one exists, each is complete, names a supported topology, is unique
// across the whole registry, and LookupFleet finds it.
func checkFleetRegistry(t *testing.T, sharded bool) {
	t.Helper()
	ps := fleetPresets(sharded)
	if len(ps) == 0 {
		t.Fatalf("no fleet presets with sharded=%v", sharded)
	}
	seen := map[string]int{}
	for _, p := range FleetPresets() {
		seen[p.Name]++
	}
	for _, p := range ps {
		if p.Name == "" || p.Description == "" || p.Base.Name == "" || p.Replicas < 2 {
			t.Fatalf("preset %+v incomplete", p)
		}
		if p.Shards != 0 && p.Shards != p.Replicas {
			t.Fatalf("preset %s: %d shards over %d replicas is not a supported topology", p.Name, p.Shards, p.Replicas)
		}
		if seen[p.Name] != 1 {
			t.Fatalf("duplicate fleet preset %q", p.Name)
		}
		got, err := LookupFleet(p.Name)
		if err != nil || got.Name != p.Name {
			t.Fatalf("LookupFleet(%q) = %+v, %v", p.Name, got, err)
		}
	}
	if _, err := LookupFleet("nope"); err == nil {
		t.Fatal("LookupFleet accepted an unknown name")
	}
}

func TestDistPresetRegistry(t *testing.T)  { checkFleetRegistry(t, false) }
func TestShardPresetRegistry(t *testing.T) { checkFleetRegistry(t, true) }

func TestFleetRejectsUnsupportedTopology(t *testing.T) {
	p := FleetPresets()[0]
	for _, shards := range []int{1, p.Replicas + 1} {
		p.Shards = shards
		if _, err := RunFleet(p, RunOptions{Dir: t.TempDir()}); err == nil {
			t.Fatalf("RunFleet accepted %d shards over %d replicas", shards, p.Replicas)
		}
	}
	p.Shards, p.Replicas = 0, 1
	if _, err := RunFleet(p, RunOptions{Dir: t.TempDir()}); err == nil {
		t.Fatal("RunFleet accepted a one-replica fleet")
	}
}

// runFleetPresets drives every fleet preset of one kind end to end
// through RunFleet: train → publish → fetcher distribution → router →
// queries, with bit-equality against a single full node on both sides of
// a live generation rollout, zero routed read errors during it, and — for
// the sharded fleet — the per-replica mapped-bytes budget (~full/N +
// global) held. Every preset runs the same check set over the same base
// population, which comes to 285 equality checks; a floor below that
// would let a dropped check pass.
func runFleetPresets(t *testing.T, sharded bool) {
	if testing.Short() {
		t.Skip("fleet scenarios train models; skipped in -short")
	}
	ps := fleetPresets(sharded)
	if len(ps) == 0 {
		t.Fatalf("no fleet presets with sharded=%v", sharded)
	}
	for _, p := range ps {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			start := time.Now()
			m, err := RunFleet(p, RunOptions{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %d replicas, %d shards, %d generations, %d equality checks, %d routed reads (%d errors), "+
				"%d misroutes, mapped ≤ %d of %d full bytes in %v",
				p.Name, m.Replicas, m.Shards, m.Generations, m.EqualityChecks, m.ReadQueries, m.ReadErrors,
				m.Misroutes, m.MaxReplicaMappedBytes, m.FullBytes,
				time.Since(start).Round(time.Millisecond))
			if m.EqualityChecks < 285 {
				t.Fatalf("%d bit-equality checks ran, want at least 285", m.EqualityChecks)
			}
			if m.ReadQueries == 0 {
				t.Fatal("the rollout read hammer never ran")
			}
			if m.ReadErrors != 0 || m.Misroutes != 0 {
				t.Fatalf("%d routed read errors and %d misroutes, want none", m.ReadErrors, m.Misroutes)
			}
			if m.Generations != 2 {
				t.Fatalf("fleet ended on generation %d, want 2", m.Generations)
			}
			if m.MaxReplicaMappedBytes == 0 || m.FullBytes == 0 {
				t.Fatal("mapped-bytes accounting never ran")
			}
		})
	}
}

// TestDistributedScenario runs the full-replica fleets (tri-replica).
func TestDistributedScenario(t *testing.T) { runFleetPresets(t, false) }

// TestShardedScenario runs the shard-owning fleets (sharded-fleet).
func TestShardedScenario(t *testing.T) { runFleetPresets(t, true) }
