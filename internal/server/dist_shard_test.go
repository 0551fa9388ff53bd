package server

import (
	"fmt"
	"net/http"
	"runtime"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/search"
)

// TestShardedEnumerationMatchesLocal: with intra-space sharding on and
// two workers joined, one enumeration is warmed up locally, split into
// two frontier shards, run on the fleet, and merged — and the space the
// coordinator serves hashes byte-identically to a single-node run, for
// the default tier and for the equivalence tier derived from a second
// sharded merge.
func TestShardedEnumerationMatchesLocal(t *testing.T) {
	s, ts := newTestServer(t, Config{
		ShardFanout: 2, DistLeaseTTL: 2 * time.Second, DistPollWait: 100 * time.Millisecond,
		// Under -race on a small box the sharded round trips run well
		// past the 60s default request deadline.
		DefaultDeadline: 5 * time.Minute,
	})
	startWorker(t, ts, "w1", nil, nil)
	startWorker(t, ts, "w2", nil, nil)
	waitFor(t, "workers to register", func() bool { return fleetLive(s) == 2 })

	want, err := search.Run(mustCompile(t, sumSrc, "sum"), search.Options{}).CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	status, doc, _ := post(t, ts, srcBody(sumSrc))
	if status != http.StatusOK {
		t.Fatalf("sharded request: status %d: %v", status, doc)
	}
	if doc["space_hash"] != want {
		t.Fatalf("sharded hash %v != single-node hash %s", doc["space_hash"], want)
	}
	if got := s.dist.shardSplits.Value(); got != 1 {
		t.Fatalf("dist.shard.splits = %d, want 1", got)
	}
	if got := s.dist.shardMerges.Value(); got != 1 {
		t.Fatalf("dist.shard.merges = %d, want 1", got)
	}
	if got := s.dist.shardAssignments.Value(); got != 2 {
		t.Fatalf("dist.shard.assignments = %d, want 2", got)
	}
	if got := s.dist.shardMergeFails.Value() + s.dist.shardFallbacks.Value(); got != 0 {
		t.Fatalf("shard merge failures + fallbacks = %d, want 0", got)
	}

	// The equivalence tier is derived from a fresh sharded merge and
	// must match a direct -equiv enumeration exactly.
	wantEq, err := search.Run(mustCompile(t, sumSrc, "sum"), search.Options{Equiv: true}).CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up, merge and derivation each run the engine's worker pool
	// under a CPU-budget grant: sample the in-use gauge throughout the
	// flight, and every grant must be back once it is served.
	inUse := s.cpu.gInUse
	var peak int64
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			peak = max(peak, inUse.Value())
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	status, doc, _ = post(t, ts, `{"source":`+jsonStr(sumSrc)+`,"options":{"equiv":true}}`)
	close(stop)
	<-sampled
	if status != http.StatusOK {
		t.Fatalf("sharded equiv request: status %d: %v", status, doc)
	}
	if limit := int64(runtime.GOMAXPROCS(0)); peak > limit {
		t.Fatalf("server.cpu.inuse peaked at %d during the sharded equiv flight, above GOMAXPROCS %d", peak, limit)
	}
	if v := inUse.Value(); v != 0 {
		t.Fatalf("server.cpu.inuse = %d after the sharded equiv flight, want 0", v)
	}
	if doc["space_hash"] != wantEq {
		t.Fatalf("sharded equiv hash %v != direct equiv hash %s", doc["space_hash"], wantEq)
	}
	if got := s.dist.shardMerges.Value(); got != 2 {
		t.Fatalf("dist.shard.merges = %d after the equiv flight, want 2", got)
	}

	// The flight recorder saw the split and the merge.
	var split, merge bool
	for _, rec := range s.flights.snapshot() {
		switch rec.Event {
		case "shard-split":
			split = true
		case "shard-merge":
			merge = true
		}
	}
	if !split || !merge {
		t.Fatalf("flight recorder missing shard events (split=%v merge=%v)", split, merge)
	}

	// No shard checkpoint slots were left behind (pinned or otherwise).
	keys, err := s.store.keys()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if !keyPattern.MatchString(string(k)) {
			t.Fatalf("stray cache entry %s after shard merges", k)
		}
	}
}

// runShardKillScenario is the acceptance-criteria drill: one of the two
// shard holders is killed (network partition = SIGKILL to the
// coordinator) mid-shard, its lease expires, only that shard is
// re-dispatched — seeded with the dead holder's last uploaded
// checkpoint — and the merged space still hashes identically to a
// clean single-node enumeration of the requested tier.
func runShardKillScenario(t *testing.T, equiv bool) {
	s, ts := newTestServer(t, Config{
		ShardFanout: 2, DistLeaseTTL: 600 * time.Millisecond, DistPollWait: 100 * time.Millisecond,
		DefaultDeadline: 5 * time.Minute,
	})
	gate := &gatedTransport{}
	// w1 crawls (60ms per application of phase c) so it is still
	// mid-shard when the partition hits; w2 runs clean.
	startWorker(t, ts, "w1", gate, faultinject.MustParse("hang=c:60ms"))
	startWorker(t, ts, "w2", nil, nil)
	waitFor(t, "workers to register", func() bool { return fleetLive(s) == 2 })

	opts := search.Options{Equiv: equiv}
	want, err := search.Run(mustCompile(t, sumSrc, "sum"), opts).CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	body := srcBody(sumSrc)
	if equiv {
		body = `{"source":` + jsonStr(sumSrc) + `,"options":{"equiv":true}}`
	}

	type reply struct {
		status int
		doc    map[string]any
	}
	replies := make(chan reply, 1)
	go func() {
		st, doc, _ := post(t, ts, body)
		replies <- reply{st, doc}
	}()

	// Wait until w1 holds a shard and has uploaded progress, then cut
	// the network and bring in a replacement.
	waitFor(t, "a shard checkpoint upload from w1", func() bool {
		s.dist.mu.Lock()
		defer s.dist.mu.Unlock()
		for _, a := range s.dist.assignments {
			if a.worker == "w1" && a.ckptNodes > 0 {
				return true
			}
		}
		return false
	})
	gate.dead.Store(true)
	startWorker(t, ts, "w3", nil, nil)

	r := <-replies
	if r.status != http.StatusOK {
		t.Fatalf("recovered sharded request: status %d: %v", r.status, r.doc)
	}
	if r.doc["space_hash"] != want {
		t.Fatalf("recovered sharded hash %v != clean single-node hash %s (equiv=%v)",
			r.doc["space_hash"], want, equiv)
	}
	if got := s.dist.expiryVec.With("w1").Value(); got < 1 {
		t.Fatalf(`dist.lease_expiries{worker="w1"} = %d, want >= 1`, got)
	}
	// Only the dead holder's shard was re-dispatched: w2 never lost its
	// lease.
	if got := s.dist.retryVec.With("w2").Value(); got != 0 {
		t.Fatalf(`dist.retries{worker="w2"} = %d, want 0 (the healthy shard was reassigned)`, got)
	}
	if got := s.dist.shardMerges.Value(); got != 1 {
		t.Fatalf("dist.shard.merges = %d, want 1", got)
	}
	if got := s.dist.shardMergeFails.Value(); got != 0 {
		t.Fatalf("dist.shard.merge_failures = %d, want 0", got)
	}
}

func TestShardHolderKillDefaultTier(t *testing.T) { runShardKillScenario(t, false) }
func TestShardHolderKillEquivTier(t *testing.T)   { runShardKillScenario(t, true) }

// TestFleetParityTable: every fleet flight is a frontier split into
// K = min(max(ShardFanout, 1), live workers) shards. Across fanout
// {0, 2} × {1, 2} live workers × {default, equiv} the served space
// hashes like the serial run, exactly K shards are leased, only K=2
// merges (one shard is the space as is), nothing falls back, and every
// CPU grant is returned. At K=1 the coordinator draws no CPU at all:
// the root pause applies no phase and an equiv flight's worker derives
// the tier itself.
func TestFleetParityTable(t *testing.T) {
	fn := mustCompile(t, sumSrc, "sum")
	want := map[bool]string{}
	for _, equiv := range []bool{false, true} {
		h, err := search.Run(fn, search.Options{Equiv: equiv}).CanonicalHash()
		if err != nil {
			t.Fatal(err)
		}
		want[equiv] = h
	}
	for _, fanout := range []int{0, 2} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("fanout=%d,workers=%d", fanout, workers), func(t *testing.T) {
				s, ts := newTestServer(t, Config{
					ShardFanout: fanout, DistLeaseTTL: 2 * time.Second, DistPollWait: 100 * time.Millisecond,
					DefaultDeadline: 5 * time.Minute,
				})
				for i := 1; i <= workers; i++ {
					startWorker(t, ts, fmt.Sprintf("w%d", i), nil, nil)
				}
				waitFor(t, "workers to register", func() bool { return fleetLive(s) == workers })
				k := int64(min(max(fanout, 1), workers))
				d := s.dist

				for _, equiv := range []bool{false, true} {
					assigned, merges := d.shardAssignments.Value(), d.shardMerges.Value()
					grants := s.reg.Snapshot().Histograms["server.cpu.wait_ns"].Count
					status, doc, _ := post(t, ts, fmt.Sprintf(`{"source":%s,"options":{"equiv":%v}}`, jsonStr(sumSrc), equiv))
					if status != http.StatusOK {
						t.Fatalf("equiv=%v: status %d: %v", equiv, status, doc)
					}
					if doc["space_hash"] != want[equiv] {
						t.Fatalf("equiv=%v: fleet hash %v != serial hash %s", equiv, doc["space_hash"], want[equiv])
					}
					if got := d.shardAssignments.Value() - assigned; got != k {
						t.Fatalf("equiv=%v: dist.shard.assignments moved by %d, want K=%d", equiv, got, k)
					}
					wantMerges := int64(0)
					if k == 2 {
						wantMerges = 1
					}
					if got := d.shardMerges.Value() - merges; got != wantMerges {
						t.Fatalf("equiv=%v: dist.shard.merges moved by %d, want %d", equiv, got, wantMerges)
					}
					if got := s.reg.Snapshot().Histograms["server.cpu.wait_ns"].Count - grants; k == 1 && got != 0 {
						t.Fatalf("equiv=%v: the coordinator drew %d CPU grants for a one-shard flight, want 0", equiv, got)
					}
					if v := s.cpu.gInUse.Value(); v != 0 {
						t.Fatalf("equiv=%v: server.cpu.inuse = %d after the flight, want 0", equiv, v)
					}
				}
				if got := d.fallbacks.Value() + d.shardFallbacks.Value() + d.shardMergeFails.Value(); got != 0 {
					t.Fatalf("fallbacks + merge failures = %d, want 0", got)
				}
			})
		}
	}
}
