package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Workload parameters. The cold workloads run whole cycles of rounds.
// A cycle requests every function of the workload's draw once, in a
// seeded order, one function per round; a round is a fresh cache, the
// function requested once per tier in a seeded tier order (the cold
// phase, which every cold metric but the two tier latencies measures),
// then a read-back of what the cold phase wrote. Runs end on a whole
// cycle, so every function weighs the same in every metric.
//
// The read-back is the only traffic of a cold round that reads the
// cache, and it exists so that the memory- and disk-tier latencies
// have figures on the cold workloads too: readPasses passes in
// alternating order, the first in reverse, that read each key
// readRepeats times in a row. With the memory LRU holding one of the
// round's two keys, the first read of a key in a pass finds it on disk
// in every other pass and in memory in the rest, and every repeat
// finds it in memory: each key is read twice from disk and six times
// from memory. One read per tier and key was measured too few: single
// reads on a shared 2-CPU host vary threefold within a tenth of a
// second, and cold-sharded, with three functions, then spread its
// tier medians by up to a third from seed to seed.
const (
	readPasses  = 4
	readRepeats = 2
	// warmClients is the closed-loop client count of warm-serve; the
	// host has 2 CPUs.
	warmClients = 2
	// zipfS skews warm-serve's draw: rank r is requested with weight
	// (1+r)^-zipfS.
	zipfS = 1.1
	// warmEpoch is how many requests warm-serve sends before its
	// popularity ranking rotates by one place; a run cycles through
	// every rotation many times.
	warmEpoch = 8
	// setupRepeats is how many set-ups every run times besides the
	// cold rounds' own (a set-up takes tens of milliseconds and jitters
	// by a few, so setup_s is the median of many).
	setupRepeats = 15
)

// The workloads' draws. A cold cycle must fit a run, so each cold
// workload requests a fixed slice of the medium band, chosen across the
// band's cost range; the seed orders it. Every list has an odd length,
// so the median of a per-function metric falls on the middle
// function's own samples instead of in the gap between two functions.
var (
	coldLocalFuncs = []string{
		"stringsearch/bmhi_search", "jpeg/idct_pass", "jpeg/get_code",
		"sha/byte_reverse", "stringsearch/build_text",
	}
	// warmFuncs is warm-serve's working set, both tiers of each: a
	// fixed slice of the small band across its size range, so the seed
	// orders the load without changing its mix.
	warmFuncs = []string{
		"fft/fix_sin", "fft/fix_mag", "dijkstra/dijkstra_main", "dijkstra/path_len",
		"jpeg/set_quant_table", "stringsearch/bmhi_search", "stringsearch/build_text",
	}
	coldShardedFuncs = []string{
		"stringsearch/bmhi_search", "jpeg/set_quant_table", "stringsearch/brute_search",
	}
)

// warmupFunc is requested once by every set-up so the corpus compile
// and the first-request paths are not charged to the timed loop.
const warmupFunc = "bitcount/nextrand"

func (b *bench) reqID() string {
	return fmt.Sprintf("pb%d-%d", b.o.seed, b.nextID.Add(1))
}

// setupEnv starts a server over dir and sends the warm-up request; the
// elapsed time is one set-up sample.
func (b *bench) setupEnv(ec envConfig) (*env, error) {
	start := time.Now()
	e, err := startEnv(ec, b.cl)
	if err != nil {
		return nil, err
	}
	if s := e.cl.do(context.Background(), request{name: warmupFunc}, b.reqID(), "setup"); s.err != "" {
		e.close()
		return nil, fmt.Errorf("warm-up request: %s", s.err)
	}
	b.setups = append(b.setups, time.Since(start).Seconds())
	return e, nil
}

// runCold is cold-local (fleet 0) and cold-sharded (fleet 2). Each
// round sets up its own server; setupRepeats more set-ups, on scratch
// directories, come first.
func (b *bench) runCold(funcs []string, fleet int) error {
	for i := 0; i < setupRepeats; i++ {
		dir := filepath.Join(b.dir, fmt.Sprintf("setup%d", i))
		e, err := b.setupEnv(envConfig{dir: dir, fleet: fleet})
		if err != nil {
			return err
		}
		e.close()
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	deadline := time.Now().Add(b.o.seconds)
	minCycles := 1
	if b.o.trace {
		// Cycles alternate untraced/traced, so both see every
		// function; the overhead compares cycles 1 and 2.
		minCycles = 3
	}
	round := 0
	for cycle := 0; cycle < minCycles || time.Now().Before(deadline); cycle++ {
		order := shuffled(b.rng, funcs)
		if cycle == 0 {
			b.drawn = order
		}
		b.cycle = cycle
		for _, name := range order {
			if err := b.coldRound(round, name, fleet, b.o.trace && cycle%2 == 1); err != nil {
				return err
			}
			round++
		}
	}
	return nil
}

func (b *bench) coldRound(round int, name string, fleet int, traced bool) error {
	first := b.rng.Intn(2) == 1
	reqs := []request{{name: name, equiv: first}, {name: name, equiv: !first}}
	dir := filepath.Join(b.dir, fmt.Sprintf("round%d", round))
	defer os.RemoveAll(dir)
	e, err := b.setupEnv(envConfig{dir: dir, memEntries: 1, fleet: fleet})
	if err != nil {
		return err
	}
	defer e.close()
	if traced {
		e.cl.tr = b.tr
	}
	ctx := context.Background()
	e.mark()
	heap := startHeapSampler()
	start := time.Now()
	for _, r := range reqs {
		b.add(e.cl.do(ctx, r, b.reqID(), "cold"), traced)
	}
	b.wall += time.Since(start)
	b.peaks = append(b.peaks, heap.finish())
	// The read-back starts on a collected heap, so its reads do not
	// pay for the garbage of the enumerations before it.
	runtime.GC()
	for pass := 0; pass < readPasses; pass++ {
		order := reqs
		if pass%2 == 0 {
			order = []request{reqs[1], reqs[0]}
		}
		for _, r := range order {
			for k := 0; k < readRepeats; k++ {
				b.add(e.cl.do(ctx, r, b.reqID(), "readback"), traced)
			}
		}
	}
	return b.collectServer(e, traced)
}

// warmEntry is one (function, tier) of warm-serve's working set.
type warmEntry struct {
	name  string
	equiv bool
}

// runWarm is warm-serve: fill a cache with the working set (warmFuncs
// in both tiers, or its first entries), restart the server over it
// setupRepeats times, then run warmClients closed-loop clients on a
// Zipf-skewed draw over the set, half by corpus name and half by
// program source. The seed draws the popularity ranking and the request
// streams. The ranking rotates by one place every warmEpoch requests,
// so over a run every entry holds every rank equally often: which
// entries the seed makes popular changes the order of the load, not
// its mix.
func (b *bench) runWarm(entries int) error {
	var set []warmEntry
	for _, name := range warmFuncs {
		set = append(set, warmEntry{name, false}, warmEntry{name, true})
	}
	set = set[:min(entries, len(set))]
	for _, w := range set {
		b.drawn = appendUnique(b.drawn, w.name)
	}
	ec := envConfig{dir: filepath.Join(b.dir, "warm"), memEntries: len(set) / 2}
	defer os.RemoveAll(ec.dir)

	// Fill: enumerate the working set once, two clients at a time.
	fillStart := time.Now()
	e, err := startEnv(ec, b.cl)
	if err != nil {
		return err
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < warmClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(set); i += warmClients {
				s := e.cl.do(context.Background(), request{name: set[i].name, equiv: set[i].equiv}, b.reqID(), "fill")
				mu.Lock()
				b.fill = append(b.fill, s)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	e.close()
	b.fillWall = time.Since(fillStart)

	for i := 0; i < setupRepeats; i++ {
		if e, err = b.setupEnv(ec); err != nil {
			return err
		}
		if i < setupRepeats-1 {
			e.close()
		}
	}
	defer e.close()

	rank := b.rng.Perm(len(set))
	var sent atomic.Int64
	draw := func(rng *rand.Rand, z *rand.Zipf) request {
		shift := int(sent.Add(1)-1) / warmEpoch
		w := set[rank[(int(z.Uint64())+shift)%len(set)]]
		return request{name: w.name, equiv: w.equiv, source: rng.Intn(2) == 0}
	}
	loop := func(until time.Time, warmup bool) {
		var wg sync.WaitGroup
		out := make([][]sample, warmClients)
		for c := 0; c < warmClients; c++ {
			rng := rand.New(rand.NewSource(b.rng.Int63()))
			z := rand.NewZipf(rng, zipfS, 1, uint64(len(set)-1))
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cl := *e.cl
				for n := 0; ; n++ {
					if warmup && n >= len(set) || !warmup && !time.Now().Before(until) {
						return
					}
					// Traced runs trace alternate 250 ms windows, so
					// traced and untraced requests share the same load.
					traced := !warmup && b.o.trace && time.Now().UnixMilli()/250%2 == 1
					cl.tr = nil
					if traced {
						cl.tr = b.tr
					}
					s := cl.do(context.Background(), draw(rng, z), b.reqID(), "warm")
					if !warmup {
						s.traced = traced
						out[c] = append(out[c], s)
					}
				}
			}(c)
		}
		wg.Wait()
		for _, ss := range out {
			for _, s := range ss {
				b.add(s, s.traced)
			}
		}
	}
	loop(time.Time{}, true)
	e.mark()
	heap := startHeapSampler()
	start := time.Now()
	loop(start.Add(b.o.seconds), false)
	b.wall += time.Since(start)
	b.peaks = append(b.peaks, heap.finish())
	return b.collectServer(e, b.o.trace)
}

func appendUnique(xs []string, x string) []string {
	for _, y := range xs {
		if y == x {
			return xs
		}
	}
	return append(xs, x)
}

// counterNames are the dispatch-layer counters the traced run reports
// per cold request.
var counterNames = []string{
	"dist.assignments", "dist.heartbeats", "dist.lease_expiries", "dist.retries",
	"dist.stale_uploads", "dist.shard.fallbacks", "dist.shard.merge_failures", "dist.local_fallbacks",
}

// searchCounters and searchHists are the engine instruments the
// server's flights record into its registry; the traced run reports
// them per enumeration of the timed loop.
var (
	searchCounters = []string{
		"search.nodes", "search.attempts", "search.checkpoint.writes",
		"search.index.probes", "search.index.bytecompares",
		"search.index.stripe.acquisitions", "search.index.stripe.contended",
	}
	searchHists = []string{"search.expand.duration_ns", "search.statekey.duration_ns"}
)

// collectServer folds the server's counters since mark (the timed
// loop's) and, for a traced stretch, its flight records into the run.
func (b *bench) collectServer(e *env, traced bool) error {
	c, h := e.counters()
	for _, n := range append(counterNames, searchCounters...) {
		b.counters[n] += c[n]
	}
	for _, n := range searchHists {
		b.counters[n] += h[n].Sum
	}
	cpu := h["server.cpu.wait_ns"]
	b.cpuWaitNS += cpu.Sum
	b.cpuWaits += cpu.Count
	if !traced {
		return nil
	}
	recs, err := e.flights()
	if err != nil {
		return err
	}
	for i := range b.samples {
		s := &b.samples[i]
		if rec, ok := recs[s.reqID]; ok && s.traced {
			b.flightRecs[s.reqID] = rec
		}
	}
	return nil
}
