package search

import (
	"fmt"
	"sync"

	"repro/internal/dataflow"
	"repro/internal/opt"
)

// DeriveEquiv computes the equivalence-collapsed space of a complete
// default-tier enumeration, byte-identical (under canonical
// serialization) to what Run with Options.Equiv produces directly.
//
// Equivalence-collapsed runs are not checkpointable — the class and
// alias tables are not persisted — so a sharded enumeration runs its
// shards in the default tier and derives the equiv space afterwards.
// That is sound because the complete default space is a total oracle
// for the equiv BFS: every node the equiv run expands is the class
// representative of some default-tier instance, and every phase
// outcome at that instance is recorded in the default space's edges
// (absence = dormant, by the same Section 4.1 argument the merge
// uses). The derivation is Run's own level loop, seeded from the root
// with the equivalence tier on, with deriveSource answering attempts;
// only the raw-distinct children the equivalence tier must classify
// are materialized. opts supplies the caps, phase list and width of
// the equiv request (the machine description always comes from full);
// if a cap binds, the derived result aborts with the serial run's
// reason.
func DeriveEquiv(full *Result, opts Options) (res *Result, err error) {
	if full.Checkpoint != nil {
		return nil, fmt.Errorf("search: derive-equiv: source space is not complete (checkpoint frontier remains)")
	}
	if full.Aborted {
		return nil, fmt.Errorf("search: derive-equiv: source space is aborted (%s)", full.AbortReason)
	}
	if full.Equiv != nil {
		return nil, fmt.Errorf("search: derive-equiv: source space is already equivalence-collapsed")
	}
	if len(full.Nodes) == 0 || full.root == nil {
		return nil, fmt.Errorf("search: derive-equiv: source space is empty")
	}
	// A shard result arrives over the wire, so a malformed source space
	// surfaces as an error instead of unwinding the caller.
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("search: derive-equiv: %v", r)
		}
	}()
	oracle := attemptOracle{}
	if err := harvestOracle(oracle, full, func(int) bool { return true }); err != nil {
		return nil, err
	}
	opts.Machine = full.opts.Machine
	opts.Equiv = true
	opts.Logger, opts.Metrics, opts.Tracer, opts.ProgressInterval = nil, nil, nil, 0
	e := rootEngine(full.FuncName, full.root, opts)
	e.prior = full.Elapsed
	src := &deriveSource{e: e, oracle: oracle}
	e.src = src
	res = e.run()
	if src.err != nil {
		return nil, fmt.Errorf("search: derive-equiv: %w", src.err)
	}
	return res, nil
}

// deriveSource answers the equivalence run's attempts from the default
// space's oracle. Dormant attempts, quarantines and identical-tier
// duplicates need nothing more. A raw key the index has only pending
// may open or fold into an equivalence class, which needs the child
// instance and its equivalence encoding: the phase is applied to the
// parent's retained instance — the one the live equiv run retains,
// reached by the same sequence — and the child is encoded.
type deriveSource struct {
	e      *engine
	oracle attemptOracle

	mu  sync.Mutex
	err error // first inconsistency between the oracle and a replayed phase
}

func (s *deriveSource) eval(a attempt, _ int) (o outcome) {
	o = s.e.answer(s.oracle, a)
	if o.pend == nil {
		return o
	}
	defer func() {
		if r := recover(); r != nil {
			s.fail(fmt.Errorf("phase %c at %q: %v", a.phase.ID(), a.node.Seq, r))
			o = outcome{}
		}
	}()
	child := getClone(a.node.fn)
	st := a.node.State
	if !opt.Attempt(child, &st, a.phase, s.e.opts.Machine) {
		putClone(child)
		s.fail(fmt.Errorf("phase %c at %q is dormant, but the source space records a child", a.phase.ID(), a.node.Seq))
		return outcome{}
	}
	o.fn = child
	o.equiv = dataflow.EquivEncode(nil, child)
	return o
}

func (s *deriveSource) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}
