package search_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/search"
)

// TestOracleSourceWidthIndependence checks that the two oracle-driven
// paths inherit the engine's width independence: MergeShards (whose
// level loop runs at the base warm-up's Workers) and DeriveEquiv (at
// its own Workers) serialize to the same canonical bytes at 1, 4 and
// 16 workers — on a clean space, and on one where an injected phase
// panic quarantines a frontier attempt — and those bytes are the
// serial default and equivalence runs'. The race target runs it under
// -race.
func TestOracleSourceWidthIndependence(t *testing.T) {
	_, f := compileFunc(t, sumSrc, "sum")
	// A phase active at the first expandable frontier node of the
	// warm-up: frontier sequences are fixed by the base table, so the
	// fault fires identically in the owning shard and the serial run.
	base := search.Run(f, search.Options{StopAtFrontier: 2})
	ref := search.Run(f, search.Options{})
	bySeq := make(map[string]*search.Node, len(ref.Nodes))
	for _, n := range ref.Nodes {
		bySeq[n.Seq] = n
	}
	plan := ""
	for _, n := range base.Checkpoint.Frontier {
		if rn := bySeq[n.Seq]; rn != nil && len(rn.Edges) > 0 {
			plan = "panic=" + string(rn.Edges[0].Phase) + "@" + n.Seq
			break
		}
	}
	if plan == "" {
		t.Fatal("no expandable frontier node in the reference space")
	}

	for _, space := range []struct {
		name string
		plan string
	}{{"clean", ""}, {"quarantine", plan}} {
		faults := func() *faultinject.Plan {
			if space.plan == "" {
				return nil
			}
			return faultinject.MustParse(space.plan)
		}
		full := search.Run(f, search.Options{Workers: 1, Faults: faults()})
		if full.Aborted {
			t.Fatalf("%s: serial run aborted: %s", space.name, full.AbortReason)
		}
		if space.plan != "" && full.Stats.Quarantined == 0 {
			t.Fatalf("%s: fault plan never fired", space.name)
		}
		wantMerge := canonical(t, full)
		wantDerive := canonical(t, search.Run(f, search.Options{Workers: 1, Equiv: true, Faults: faults()}))
		for _, w := range []int{1, 4, 16} {
			t.Run(fmt.Sprintf("%s,workers=%d", space.name, w), func(t *testing.T) {
				warm := search.Run(f, search.Options{Workers: w, StopAtFrontier: 2, Faults: faults()})
				docs, ids, err := search.PartitionCheckpoint(warm, 2)
				if err != nil {
					t.Fatal(err)
				}
				shards := make([]search.ShardSpace, len(docs))
				for i, doc := range docs {
					shards[i] = search.ShardSpace{Res: completeShard(t, doc, false, faults()), FrontierIDs: ids[i]}
				}
				merged, err := search.MergeShards(warm, shards)
				if err != nil {
					t.Fatalf("merge: %v", err)
				}
				if !bytes.Equal(canonical(t, merged), wantMerge) {
					t.Fatal("merged space differs from the serial run")
				}
				derived, err := search.DeriveEquiv(full, search.Options{Workers: w})
				if err != nil {
					t.Fatalf("derive-equiv: %v", err)
				}
				if !bytes.Equal(canonical(t, derived), wantDerive) {
					t.Fatal("derived equiv space differs from the serial equiv run")
				}
			})
		}
	}
}
