package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/machine"
	"repro/internal/mc"
	"repro/internal/opt"
	"repro/internal/rtl"
	"repro/internal/search"
)

// timedPhase wraps a Table 1 phase so the replay can time Apply and
// count its outcomes from outside the engine; it reaches the engine
// through search.Options.Phases.
type timedPhase struct {
	opt.Phase
	st *phaseStat
}

type phaseStat struct {
	ns, calls, active atomic.Int64
}

func (p timedPhase) Apply(f *rtl.Func, d *machine.Desc) bool {
	start := time.Now()
	active := p.Phase.Apply(f, d)
	p.st.ns.Add(int64(time.Since(start)))
	p.st.calls.Add(1)
	if active {
		p.st.active.Add(1)
	}
	return active
}

// replay is the per-layer cost of one function, measured by timing the
// public calls a flight makes, one layer at a time, outside the server.
type replay struct {
	// Milliseconds per layer.
	compile, run, runCkpt, runEquiv, save, load, hash float64
	warmup, partition, shardMax, merge, derive        float64
	phases                                            map[byte]*phaseStat
}

// replayPlan says which layers a replay times: only those the
// workload's timed loop goes through.
type replayPlan struct {
	// engine: phase wrappers, run with and without checkpoints, the
	// equivalence tier and Save (cold-local).
	engine bool
	// shards: phase wrappers, the coordinator's pipeline and Save
	// (cold-sharded).
	shards bool
}

// checkpointMS is the cost per-level checkpointing adds to a run.
func (r *replay) checkpointMS() float64 { return r.runCkpt - r.run }

// replayFunction measures cf layer by layer. It always times mc.Compile
// and, on space (the default-tier bytes the server served for cf),
// search.Load and CanonicalHash. The plan adds the engine with timed
// phase wrappers, Save, and either the same-width run with and without
// a checkpoint file plus the equivalence tier, or the sharded pipeline
// a coordinator runs (StopAtFrontier → PartitionCheckpoint → Resume per
// shard → MergeShards → DeriveEquiv). Every space it builds must hash
// to the reference. Spans go to tr under one "replay" root.
func replayFunction(cf *corpusFunc, ref refEntry, space []byte, plan replayPlan, dir string, tr *tracer) (*replay, error) {
	width := runtime.GOMAXPROCS(0)
	r := &replay{phases: map[byte]*phaseStat{}}
	start := time.Now()
	root := tr.add(0, "replay", cf.name, start, start) // end fixed below
	defer func() { tr.end(root, time.Now()) }()
	sp := func(name string, f func()) float64 { return ms(tr.timed(root, name, cf.name, f)) }
	var err error
	check := func(res *search.Result, want, what string) {
		if err != nil {
			return
		}
		if res == nil || res.Aborted {
			err = fmt.Errorf("%s %s: aborted", cf.name, what)
			return
		}
		h, herr := res.CanonicalHash()
		if herr != nil {
			err = herr
		} else if h != want {
			err = fmt.Errorf("%s %s: hash %.12s, reference %.12s", cf.name, what, h, want)
		}
	}

	r.compile = sp("mc.compile", func() { _, err = mc.Compile(cf.prog.Source) })
	if err != nil {
		return nil, err
	}
	var loaded *search.Result
	r.load = sp("search.load", func() { loaded, err = search.Load(bytes.NewReader(space)) })
	if err != nil {
		return nil, err
	}
	r.hash = sp("search.hash", func() { _, err = loaded.CanonicalHash() })
	if err != nil {
		return nil, err
	}
	if !plan.engine && !plan.shards {
		return r, nil
	}

	r.save = sp("search.save", func() { err = loaded.Save(io.Discard) })
	if err != nil {
		return nil, err
	}
	var phases []opt.Phase
	for _, p := range opt.All() {
		st := &phaseStat{}
		r.phases[p.ID()] = st
		phases = append(phases, timedPhase{Phase: p, st: st})
	}
	var res *search.Result
	sp("search.run_instrumented", func() {
		res = search.Run(cf.fn, search.Options{Workers: width, Phases: phases})
	})
	if check(res, ref.Default, "instrumented run"); err != nil {
		return nil, err
	}

	if plan.engine {
		// The same width with and without per-level checkpoints.
		r.run = sp("search.run", func() { res = search.Run(cf.fn, search.Options{Workers: width}) })
		if check(res, ref.Default, "run"); err != nil {
			return nil, err
		}
		ckPath := filepath.Join(dir, "replay.ckpt.space.gz")
		r.runCkpt = sp("search.run_checkpointed", func() {
			res = search.Run(cf.fn, search.Options{Workers: width, CheckpointPath: ckPath})
		})
		if check(res, ref.Default, "checkpointed run"); err != nil {
			return nil, err
		}
		r.runEquiv = sp("search.run_equiv", func() { res = search.Run(cf.fn, search.Options{Workers: width, Equiv: true}) })
		if check(res, ref.Equiv, "equiv run"); err != nil {
			return nil, err
		}
	}
	if !plan.shards {
		return r, nil
	}

	// The sharded pipeline, K=2, shards at the fleet workers' width 1.
	var warm *search.Result
	r.warmup = sp("search.warmup", func() { warm = search.Run(cf.fn, search.Options{Workers: width, StopAtFrontier: 2}) })
	if warm.Aborted || warm.Checkpoint == nil {
		return nil, fmt.Errorf("%s: space completes before its frontier reaches 2 nodes", cf.name)
	}
	var docs [][]byte
	var ids [][]int
	r.partition = sp("search.partition", func() { docs, ids, err = search.PartitionCheckpoint(warm, 2) })
	if err != nil {
		return nil, err
	}
	shards := make([]search.ShardSpace, len(docs))
	for i, doc := range docs {
		d := sp("search.shard_run", func() {
			var prev *search.Result
			if prev, err = search.Load(bytes.NewReader(doc)); err == nil {
				shards[i].Res, err = search.Resume(prev, search.Options{Workers: 1})
			}
		})
		if err != nil {
			return nil, err
		}
		shards[i].FrontierIDs = ids[i]
		r.shardMax = max(r.shardMax, d)
	}
	var merged *search.Result
	r.merge = sp("search.merge", func() { merged, err = search.MergeShards(warm, shards) })
	if err != nil {
		return nil, err
	}
	if check(merged, ref.Default, "shard merge"); err != nil {
		return nil, err
	}
	var derived *search.Result
	r.derive = sp("search.derive_equiv", func() { derived, err = search.DeriveEquiv(merged, search.Options{}) })
	if err != nil {
		return nil, err
	}
	if check(derived, ref.Equiv, "derived equiv"); err != nil {
		return nil, err
	}
	return r, nil
}
