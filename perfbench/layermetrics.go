package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/opt"
)

// perLayerUnits lists every per-layer metric with its unit.
func perLayerUnits() map[string]string {
	u := map[string]string{
		"server.queue_wait_ms": "ms", "server.enumerate_ms": "ms", "server.serialize_ms": "ms",
		"server.cpu_wait_ms": "ms", "server.mem_hit_ratio": "ratio", "server.disk_hit_ratio": "ratio",
		"server.http_residual_ms": "ms", "server.space_get_ms": "ms",
		"mc.compile_ms":                       "ms",
		"search.run_ms":                       "ms",
		"search.expand_ms":                    "ms",
		"search.statekey_ms":                  "ms",
		"search.index.probes":                 "count",
		"search.index.bytecompares":           "count",
		"search.index.stripe_contended_ratio": "ratio",
		"search.useful_ratio":                 "ratio",
		"search.checkpoint.writes":            "count",
		"search.checkpoint_ms":                "ms",
		"search.save_ms":                      "ms",
		"search.load_ms":                      "ms",
		"search.hash_ms":                      "ms",
		"dataflow.equiv_overhead_ms":          "ms",
		"search.warmup_ms":                    "ms",
		"search.partition_ms":                 "ms",
		"search.shard_run_ms_max":             "ms",
		"search.merge_ms":                     "ms",
		"search.derive_equiv_ms":              "ms",
		"dist.residual_ms":                    "ms",
		"residual_ms":                         "ms",
		"trace.overhead_pct":                  "%",
	}
	for _, n := range counterNames {
		u[n] = "count"
	}
	for _, p := range opt.All() {
		u[fmt.Sprintf("opt.apply_ms.%c", p.ID())] = "ms"
		u[fmt.Sprintf("opt.active_ratio.%c", p.ID())] = "ratio"
	}
	return u
}

// perLayer combines a replay of the drawn functions with the timed
// loop's flight records, spans and server counters. A layer the
// workload's timed loop does not go through reads 0. Replayed times
// are means per replayed function; the engine instruments and dist.*
// counters are per enumeration of the timed loop, from the server's
// own registry; server times are means per traced request.
func (b *bench) perLayer() (map[string]metric, error) {
	sharded := b.o.workload == "cold-sharded"
	plan := replayPlan{engine: b.o.workload == "cold-local", shards: sharded}
	// The default-tier bytes served for each function, for the
	// load/hash/save replay.
	spaces := map[string][]byte{}
	for _, s := range append(b.fill, b.samples...) {
		if s.err == "" && !s.req.equiv && spaces[s.req.name] == nil {
			spaces[s.req.name] = b.cl.bodies.get(s.digest)
		}
	}
	budget := b.o.seconds / 2
	start := time.Now()
	var reps []*replay
	byName := map[string]*replay{}
	for i, name := range b.drawn {
		if i > 0 && time.Since(start) > budget {
			break
		}
		if spaces[name] == nil {
			return nil, fmt.Errorf("replay: no default-tier space served for %s", name)
		}
		dir := filepath.Join(b.dir, "replay")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		r, err := replayFunction(b.corpus[name], b.refs[name], spaces[name], plan, dir, b.tr)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		reps = append(reps, r)
		byName[name] = r
	}
	b.info["replayed_functions"] = float64(len(reps))

	units := perLayerUnits()
	out := map[string]metric{}
	set := func(name string, v float64) { out[name] = metric{v, units[name]} }
	mean := func(f func(r *replay) float64) float64 {
		var sum float64
		for _, r := range reps {
			sum += f(r)
		}
		return sum / float64(len(reps))
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	// Replayed layers.
	set("mc.compile_ms", mean(func(r *replay) float64 { return r.compile }))
	for _, p := range opt.All() {
		id := p.ID()
		var calls, active, ns float64
		for _, r := range reps {
			if st := r.phases[id]; st != nil {
				calls += float64(st.calls.Load())
				active += float64(st.active.Load())
				ns += float64(st.ns.Load())
			}
		}
		set(fmt.Sprintf("opt.apply_ms.%c", id), ns/1e6/float64(len(reps)))
		set(fmt.Sprintf("opt.active_ratio.%c", id), ratio(active, calls))
	}
	set("search.run_ms", mean(func(r *replay) float64 { return r.run }))
	set("search.checkpoint_ms", mean(func(r *replay) float64 { return r.checkpointMS() }))
	set("dataflow.equiv_overhead_ms", mean(func(r *replay) float64 { return r.runEquiv - r.run }))
	set("search.save_ms", mean(func(r *replay) float64 { return r.save }))
	set("search.load_ms", mean(func(r *replay) float64 { return r.load }))
	set("search.hash_ms", mean(func(r *replay) float64 { return r.hash }))
	set("search.warmup_ms", mean(func(r *replay) float64 { return r.warmup }))
	set("search.partition_ms", mean(func(r *replay) float64 { return r.partition }))
	set("search.shard_run_ms_max", mean(func(r *replay) float64 { return r.shardMax }))
	set("search.merge_ms", mean(func(r *replay) float64 { return r.merge }))
	set("search.derive_equiv_ms", mean(func(r *replay) float64 { return r.derive }))

	// Server layers, from the traced requests' flight records and the
	// timed loop's cache tiers.
	var nRec, queue, enum, ser, httpRes, residual float64
	var nAll, memHits, diskHits, get, misses float64
	var nRes, nDist, distRes float64
	var tracedSum, untracedSum, nTraced, nUntraced float64
	for _, s := range b.samples {
		if s.err != "" {
			continue
		}
		nAll++
		get += ms(s.get)
		switch s.cache {
		case "mem":
			memHits++
		case "disk":
			diskHits++
		case "miss":
			misses++
		}
		if s.phase != "cold" && s.phase != "warm" {
			continue
		}
		if rec, ok := b.flightRecs[s.reqID]; ok {
			nRec++
			queue += float64(rec.QueueWaitMS)
			enum += float64(rec.EnumerateMS)
			ser += float64(rec.SerializeMS)
			httpRes += ms(s.post) - float64(rec.TotalMS)
			// The residual is what the request's own figures leave
			// unsplit: end to end minus the space GET and the flight's
			// queue wait, enumerate and serialize. The flight's times
			// are truncated to whole milliseconds and lie inside the
			// POST, so it is never negative. A coalesced follower
			// carries its leader's flight times, which began before its
			// own POST, so it has none.
			if !rec.Coalesced {
				residual += ms(s.total) - ms(s.get) - float64(rec.QueueWaitMS+rec.EnumerateMS+rec.SerializeMS)
				nRes++
			}
		}
		// Cold cycle 0 also warms the process up, so the overhead
		// compares traced and untraced cycles from cycle 1 on.
		if s.phase == "warm" || s.cycle > 0 {
			if s.traced {
				tracedSum += ms(s.total)
				nTraced++
			} else {
				untracedSum += ms(s.total)
				nUntraced++
			}
		}
		if r := byName[s.req.name]; sharded && s.cache == "miss" && r != nil {
			d := ms(s.total) - (r.warmup + r.partition + r.shardMax + r.merge)
			if s.req.equiv {
				d -= r.derive
			}
			distRes += d
			nDist++
		}
	}
	set("server.queue_wait_ms", ratio(queue, nRec))
	set("server.enumerate_ms", ratio(enum, nRec))
	set("server.serialize_ms", ratio(ser, nRec))
	set("server.http_residual_ms", ratio(httpRes, nRec))
	set("residual_ms", ratio(residual, nRes))
	set("server.cpu_wait_ms", ratio(float64(b.cpuWaitNS)/1e6, float64(b.cpuWaits)))
	set("server.mem_hit_ratio", ratio(memHits, nAll))
	set("server.disk_hit_ratio", ratio(diskHits, nAll))
	set("server.space_get_ms", ratio(get, nAll))
	for _, n := range counterNames {
		set(n, ratio(float64(b.counters[n]), misses))
	}
	set("dist.residual_ms", ratio(distRes, nDist))

	// The engine, as the server's flights recorded it. On cold-sharded
	// that is the coordinator's warm-up and merge: the fleet workers'
	// shard runs record into no registry the benchmark can read.
	c := func(name string) float64 { return float64(b.counters[name]) }
	set("search.expand_ms", ratio(c("search.expand.duration_ns")/1e6, misses))
	set("search.statekey_ms", ratio(c("search.statekey.duration_ns")/1e6, misses))
	set("search.index.probes", ratio(c("search.index.probes"), misses))
	set("search.index.bytecompares", ratio(c("search.index.bytecompares"), misses))
	set("search.index.stripe_contended_ratio", ratio(c("search.index.stripe.contended"), c("search.index.stripe.acquisitions")))
	set("search.useful_ratio", ratio(c("search.nodes"), c("search.attempts")))
	set("search.checkpoint.writes", ratio(c("search.checkpoint.writes"), misses))

	if nTraced > 0 && nUntraced > 0 {
		set("trace.overhead_pct", 100*(ratio(tracedSum, nTraced)/ratio(untracedSum, nUntraced)-1))
	} else {
		set("trace.overhead_pct", 0)
	}
	return out, nil
}
