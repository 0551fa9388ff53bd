package search_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/faultinject"
	"repro/internal/search"
)

// TestIndependencePruningWithSelfPrior: when the prior is mined from
// the function's own exhaustive space (so every independence entry of
// 1.0 is exact), the pruned enumeration must find the same set of
// instances while skipping evaluations.
func TestIndependencePruningWithSelfPrior(t *testing.T) {
	_, f := compileFunc(t, sumSrc, "sum")
	exact := search.Run(f, search.Options{MaxNodes: 50000})
	if exact.Aborted {
		t.Skip("space exceeds the test budget")
	}
	x := analysis.NewInteractions()
	x.Accumulate(exact)

	pruned, ps := search.RunWithIndependencePruning(f, search.Options{MaxNodes: 50000}, x, 1.0)
	if pruned.Aborted {
		t.Fatalf("pruned run aborted: %s", pruned.AbortReason)
	}

	if ps.Skipped == 0 {
		t.Error("no evaluations skipped despite fully-independent pairs in the prior")
	}
	if pruned.AttemptedPhases >= exact.AttemptedPhases {
		t.Errorf("pruning saved nothing: %d vs %d attempts",
			pruned.AttemptedPhases, exact.AttemptedPhases)
	}

	// Same instances: compare the sets of canonical keys.
	exactKeys := make(map[string]bool, len(exact.Nodes))
	for _, n := range exact.Nodes {
		exactKeys[exact.NodeKey(n)] = true
	}
	missing := 0
	for _, n := range pruned.Nodes {
		if !exactKeys[pruned.NodeKey(n)] {
			missing++
		}
	}
	if missing > 0 {
		t.Errorf("pruned space contains %d instances not in the exact space", missing)
	}
	lost := len(exact.Nodes) - len(pruned.Nodes)
	if lost != 0 {
		// With a self-prior at threshold 1.0 the diamonds are exact:
		// the space must be identical.
		t.Errorf("pruning lost %d of %d instances", lost, len(exact.Nodes))
	}
	t.Logf("attempts %d -> %d (%d diamonds completed, %d fallbacks)",
		exact.AttemptedPhases, pruned.AttemptedPhases, ps.Skipped, ps.Fallbacks)
}

// TestIndependencePruningCrossFunction quantifies the approximation
// when the prior comes from a different function, as Section 7
// envisions: most of the space survives, and the attempt count drops.
func TestIndependencePruningCrossFunction(t *testing.T) {
	_, train := compileFunc(t, smallSrc, "clamp")
	trainSpace := search.Run(train, search.Options{})
	x := analysis.NewInteractions()
	x.Accumulate(trainSpace)

	_, f := compileFunc(t, sumSrc, "sum")
	exact := search.Run(f, search.Options{MaxNodes: 50000})
	if exact.Aborted {
		t.Skip("space exceeds the test budget")
	}
	pruned, ps := search.RunWithIndependencePruning(f, search.Options{MaxNodes: 50000}, x, 1.0)
	coverage := float64(len(pruned.Nodes)) / float64(len(exact.Nodes))
	t.Logf("cross-function prior: coverage %.1f%%, %d skipped, %d fallbacks, attempts %d -> %d",
		100*coverage, ps.Skipped, ps.Fallbacks, exact.AttemptedPhases, pruned.AttemptedPhases)
	if coverage < 0.5 {
		t.Errorf("cross-function pruning lost more than half the space (%.1f%%)", 100*coverage)
	}
}

// TestIndependencePruningEngineGuarantees checks that the pruned
// enumeration keeps the guarantees of the engine it runs on: an
// injected panicking phase is quarantined exactly as Run quarantines
// it (same surviving instances, same dead ends), a tiny level cap and
// a cancelled context abort with Run's reasons, and the Stats summary
// is filled in, counting every completed diamond as an attempt
// AttemptedPhases leaves out.
func TestIndependencePruningEngineGuarantees(t *testing.T) {
	_, f := compileFunc(t, sumSrc, "sum")
	exact := search.Run(f, search.Options{MaxNodes: 50000})
	if exact.Aborted {
		t.Skip("space exceeds the test budget")
	}
	x := analysis.NewInteractions()
	x.Accumulate(exact)
	prune := func(opts search.Options) (*search.Result, search.PruneStats) {
		return search.RunWithIndependencePruning(f, opts, x, 1.0)
	}

	t.Run("quarantine", func(t *testing.T) {
		const plan = "panic=h"
		want := search.Run(f, search.Options{Faults: faultinject.MustParse(plan)})
		got, ps := prune(search.Options{Faults: faultinject.MustParse(plan)})
		if got.Aborted {
			t.Fatalf("pruned run aborted: %s", got.AbortReason)
		}
		if len(want.QuarantinedNodes()) == 0 {
			t.Fatal("fault plan never fired in the reference run")
		}
		if g, w := len(got.QuarantinedNodes()), len(want.QuarantinedNodes()); g != w {
			t.Fatalf("pruned run quarantined %d attempts, Run %d", g, w)
		}
		if got.Stats.Quarantined != want.Stats.Quarantined {
			t.Fatalf("Stats.Quarantined = %d, Run's %d", got.Stats.Quarantined, want.Stats.Quarantined)
		}
		if ps.Skipped == 0 {
			t.Error("no diamonds completed in the faulted space")
		}
		keys := func(r *search.Result) map[string]bool {
			m := make(map[string]bool)
			for _, n := range r.Nodes {
				if n.Quarantine == "" {
					m[r.NodeKey(n)] = true
				}
			}
			return m
		}
		gk, wk := keys(got), keys(want)
		if len(gk) != len(wk) {
			t.Fatalf("pruned run found %d instances, Run %d", len(gk), len(wk))
		}
		for k := range gk {
			if !wk[k] {
				t.Fatal("pruned run found an instance Run did not")
			}
		}
	})

	t.Run("level cap", func(t *testing.T) {
		opts := search.Options{MaxSeqPerLevel: 3}
		want := search.Run(f, opts)
		got, _ := prune(opts)
		if !want.Aborted {
			t.Fatal("Run did not abort under the tiny level cap")
		}
		if !got.Aborted || got.AbortReason != want.AbortReason {
			t.Fatalf("pruned run: aborted=%v reason %q, Run's %q", got.Aborted, got.AbortReason, want.AbortReason)
		}
	})

	t.Run("canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		got, _ := prune(search.Options{Ctx: ctx})
		if !got.Aborted || !strings.HasPrefix(got.AbortReason, "canceled: ") {
			t.Fatalf("pruned run on a cancelled context: aborted=%v reason %q", got.Aborted, got.AbortReason)
		}
	})

	t.Run("stats", func(t *testing.T) {
		got, ps := prune(search.Options{MaxNodes: 50000})
		st := got.Stats
		if st.NodesExpanded == 0 || st.Levels == 0 || st.Edges == 0 {
			t.Fatalf("pruned Stats not populated: %+v", st)
		}
		if st.Attempts != st.Active+st.Dormant+st.Quarantined {
			t.Fatalf("Stats.Attempts %d != active %d + dormant %d + quarantined %d",
				st.Attempts, st.Active, st.Dormant, st.Quarantined)
		}
		if st.Attempts != got.AttemptedPhases+ps.Skipped {
			t.Fatalf("Stats.Attempts %d != AttemptedPhases %d + completed diamonds %d",
				st.Attempts, got.AttemptedPhases, ps.Skipped)
		}
		if len(got.Nodes) != len(exact.Nodes) || st.NodesExpanded != exact.Stats.NodesExpanded {
			t.Fatalf("pruned run has %d nodes (%d expanded), Run %d (%d)",
				len(got.Nodes), st.NodesExpanded, len(exact.Nodes), exact.Stats.NodesExpanded)
		}
	})
}
