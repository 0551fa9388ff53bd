package server

import (
	"context"
	"fmt"

	"repro/internal/distcl"
	"repro/internal/search"
)

// Every fleet flight is a frontier split. The coordinator runs the
// space locally only until the frontier holds K = min(ShardFanout,
// live workers) nodes (the warm-up; at K=1 it pauses at the root,
// before any phase is applied), partitions that frontier into K
// disjoint shard documents — each a self-contained checkpoint a worker
// resumes like any other — and leases them through the ordinary lease
// protocol: per-shard watermarks, per-shard recovery checkpoints, and
// re-dispatch of only the shard whose holder died. One shard is the
// whole space: a one-way partition is Resume's serial continuation, so
// its result, complete or aborted, is the flight's answer as is (an
// equiv flight's worker derives the tier from it before reporting).
// K ≥ 2 completed sub-spaces are replayed through the dedup index in
// canonical shard order, reproducing byte-for-byte the space a single
// node would have enumerated (search.MergeShards). Any wobble — a
// thinned-out fleet, exhausted attempts, a K ≥ 2 or equiv shard abort,
// a failed merge — falls back to local enumeration, so the fleet can
// only add capacity, never subtract correctness.

// shardSlot is the disk store checkpoint key for shard i of a flight
// key. Each shard assignment uses its slot as its assignment key, so
// the generic checkpoint mirroring in acceptCheckpoint lands each
// shard's recovery point in its own slot.
func shardSlot(key cacheKey, i int) cacheKey {
	return cacheKey(fmt.Sprintf("%s.shard%d", key, i))
}

// shardEnumerate offers fl to the fleet as K frontier shards.
// handled=false means the caller should enumerate locally: no worker
// is live, the warm-up failed, the split could not be queued, a K ≥ 2
// shard or an equiv flight's shard aborted, a shard exhausted its
// attempts, or the merge or the equivalence derivation failed. A
// default-tier flight's key slot then holds the warm-up's pause (or,
// at K=1, the fleet's last accepted upload), so the local path
// resumes instead of restarting.
func (d *dispatcher) shardEnumerate(fl *flight) (*search.Result, bool) {
	d.mu.Lock()
	live := d.liveLocked()
	d.mu.Unlock()
	if live == 0 {
		return nil, false
	}
	k := min(max(d.s.cfg.ShardFanout, 1), live)

	// The warm-up always enumerates the default tier: shards and merge
	// need raw nodes, and an equiv flight's tier is derived afterwards,
	// by the one shard's worker or after the merge (shardFinish).
	warmup, width, err := d.s.searchLocally(fl, false, k)
	if err != nil || warmup.Aborted {
		return nil, false
	}
	if warmup.Checkpoint == nil {
		// The space completed before the frontier ever grew to k nodes
		// (shallow spaces, tight caps): nothing to distribute.
		d.shardWarmupDone.Inc()
		return d.shardFinish(fl, warmup)
	}

	docs, ids, err := search.PartitionCheckpoint(warmup, k)
	if err != nil {
		d.s.logger.Warn("dist shard partition failed", "flight_id", fl.id, "err", err.Error())
		d.shardFallbacks.Inc()
		return nil, false
	}
	slots := make([]cacheKey, len(docs))
	for i := range docs {
		slots[i] = shardSlot(fl.key, i)
	}
	if len(docs) == 1 && !fl.no.Equiv {
		// One default-tier shard is the flight's own enumeration: it
		// keeps its recovery point in the key's slot, where the warm-up
		// paused and where the local fallback and a restarted
		// coordinator's warm-up look for it.
		slots[0] = fl.key
	}

	// A one-shard equiv flight's worker derives the tier itself, so the
	// derivation's cost grows with the fleet; K ≥ 2 shards come back
	// raw for the merge.
	wopts := distcl.SearchOptions{Cap: fl.no.Cap, MaxNodes: fl.no.MaxNodes, Check: fl.no.Check,
		DeriveEquiv: fl.no.Equiv && len(docs) == 1}
	d.mu.Lock()
	if d.liveLocked() == 0 {
		d.mu.Unlock()
		d.shardFallbacks.Inc()
		return nil, false
	}
	as := make([]*assignment, len(docs))
	for i := range docs {
		a := d.newAssignment(fl, slots[i], wopts, docs[i])
		d.assignments[a.id] = a
		as[i] = a
	}
	d.mu.Unlock()

	// Pin every shard slot for the life of the flight — the LRU sweep
	// must not evict a recovery point the sweeper may need within the
	// next lease TTL — and prime it with the shard's starting document,
	// overwriting whatever an earlier life of this key left behind (a
	// previous attempt partitions at a different boundary, so a stale
	// slot would seed a worker with the wrong sub-space).
	for i, slot := range slots {
		d.s.store.pinCkpt(slot)
		if err := d.s.store.writeCkpt(slot, docs[i]); err != nil {
			d.s.logger.Warn("dist shard slot not primed", "flight_id", fl.id,
				"shard", i, "err", err.Error())
		}
	}

	queued := 0
	for _, a := range as {
		select {
		case d.pending <- a:
			queued++
		default:
		}
	}
	if queued < len(as) {
		// Dispatch queue saturated; withdraw the whole split (queued
		// entries turn stale and polls skip them).
		for _, a := range as {
			d.cancelAssignment(a)
		}
		d.shardReleaseSlots(fl, slots)
		d.shardFallbacks.Inc()
		return nil, false
	}

	d.shardSplits.Inc()
	d.shardAssignments.Add(int64(len(as)))
	d.inflight.Add(int64(len(as)))
	defer d.inflight.Add(-int64(len(as)))
	d.s.flights.add(flightRecord{Event: "shard-split", FlightID: fl.id})
	d.s.logger.InfoContext(fl.ctx, "dist space sharded", "flight_id", fl.id,
		"func", fl.fn.Name, "shards", len(as), "frontier", len(warmup.Checkpoint.Frontier))

	for _, a := range as {
		select {
		case <-a.done:
		case <-fl.ctx.Done():
			for _, b := range as {
				d.cancelAssignment(b)
			}
			d.shardReleaseSlots(fl, slots)
			return &search.Result{FuncName: fl.fn.Name, Aborted: true,
				AbortReason: fmt.Sprintf("canceled: %v", context.Cause(fl.ctx))}, true
		}
	}

	shards := make([]search.ShardSpace, len(as))
	exhausted := false
	var aborted *assignment
	d.mu.Lock()
	for i, a := range as {
		switch {
		case a.state != stateDone:
			exhausted = true
		case a.aborted:
			aborted = a
		default:
			shards[i] = search.ShardSpace{Res: a.res, FrontierIDs: ids[i]}
		}
		delete(d.assignments, a.id)
	}
	d.mu.Unlock()
	d.shardReleaseSlots(fl, slots)
	switch {
	case exhausted:
		d.fallbacks.Inc()
		d.s.logger.WarnContext(fl.ctx, "dist attempts exhausted, running locally", "flight_id", fl.id)
		return nil, false
	case aborted != nil && len(as) == 1 && !fl.no.Equiv:
		// The whole space as one shard aborted (cap, max-nodes,
		// timeout) exactly where the serial run would have.
		return &search.Result{FuncName: fl.fn.Name, Aborted: true,
			AbortReason: aborted.abortReason}, true
	case aborted != nil:
		// Shard-local caps do not land at the serial positions, and a
		// default-tier abort says nothing about where the equivalence
		// tier would have stopped, so the only byte-faithful answer is
		// a local run.
		d.s.logger.Warn("dist shard aborted, falling back", "flight_id", fl.id)
		d.shardFallbacks.Inc()
		return nil, false
	case len(as) == 1:
		// The whole space, already in the flight's tier.
		return shards[0].Res, true
	}

	// The merge runs the engine's level loop at the warm-up's width
	// (MergeShards takes it from the base result), so it draws that
	// many tokens again; the warm-up grant was returned while the
	// shards ran on the fleet.
	grant, _ := d.s.cpu.acquire(fl.ctx, width)
	merged, err := search.MergeShards(warmup, shards)
	d.s.cpu.release(grant)
	if err != nil {
		d.shardMergeFails.Inc()
		d.s.logger.Warn("dist shard merge failed", "flight_id", fl.id, "err", err.Error())
		return nil, false
	}
	d.shardMerges.Inc()
	d.s.flights.add(flightRecord{Event: "shard-merge", FlightID: fl.id})
	d.s.logger.InfoContext(fl.ctx, "dist shards merged", "flight_id", fl.id,
		"func", fl.fn.Name, "shards", len(shards), "nodes", len(merged.Nodes))
	return d.shardFinish(fl, merged)
}

// shardFinish adapts a complete (or merge-aborted) default space to
// the flight's requested tier: equiv flights get the equivalence space
// derived from it — byte-identical to a direct equiv enumeration — and
// default flights take it as is.
func (d *dispatcher) shardFinish(fl *flight, full *search.Result) (*search.Result, bool) {
	if !fl.no.Equiv {
		return full, true
	}
	if full.Aborted {
		// A cap hit in the default tier says nothing about where the
		// equivalence tier (fewer nodes per level) would have landed;
		// only a real equiv enumeration answers that.
		d.shardFallbacks.Inc()
		return nil, false
	}
	// Derivation runs the engine's level loop: draw its width from the
	// CPU budget like any enumeration.
	workers, _ := d.s.cpu.acquire(fl.ctx, d.s.cfg.SearchWorkers)
	defer d.s.cpu.release(workers)
	derived, err := search.DeriveEquiv(full, search.Options{
		MaxSeqPerLevel: fl.no.Cap,
		MaxNodes:       fl.no.MaxNodes,
		Check:          fl.no.Check,
		Workers:        max(workers, 1),
	})
	if err != nil {
		d.s.logger.Warn("dist shard equiv derivation failed", "flight_id", fl.id, "err", err.Error())
		d.shardFallbacks.Inc()
		return nil, false
	}
	return derived, true
}

// shardReleaseSlots unpins every shard checkpoint slot and deletes the
// shard-only ones. Shard progress is only meaningful against the exact
// partition that produced it, and a future attempt re-partitions at
// whatever boundary its own warm-up pauses on, so terminal paths clear
// them (cancelAssignment has already fenced late uploads by then). The
// flight key's own slot stays: it is the whole space's recovery point,
// and store.put clears it once the space is cached.
func (d *dispatcher) shardReleaseSlots(fl *flight, slots []cacheKey) {
	for _, slot := range slots {
		d.s.store.unpinCkpt(slot)
		if slot != fl.key {
			d.s.store.removeCkpt(slot)
		}
	}
}
