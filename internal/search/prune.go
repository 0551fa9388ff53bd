package search

import (
	"repro/internal/rtl"
)

// IndependencePrior supplies the probability that two phases are
// independent (produce identical code in either order), as mined by
// the analysis package from previously enumerated spaces. Implemented
// by analysis.Interactions via its Independence matrix; the indirection
// keeps the package dependency one-way.
type IndependencePrior interface {
	// Independent reports the observed independence probability of the
	// two phases, or -1 when never observed.
	Independent(x, y byte) float64
}

// PruneStats reports what independence pruning did.
type PruneStats struct {
	// Skipped counts phase evaluations replaced by diamond completion.
	Skipped int
	// Fallbacks counts prunable candidates that had to be evaluated
	// anyway because the diamond's other path was missing.
	Fallbacks int
}

// RunWithIndependencePruning enumerates the space like Run, using the
// Section 7 future-work idea: when phase x is attempted at a node m
// that was first reached by phase y from node n, and the prior says x
// and y are always independent, the result of x at m must equal the
// result of y at n's x-successor — a diamond that can be completed
// without applying either phase. Every completed diamond saves one
// full phase evaluation (clone + analysis + transformation).
//
// The enumeration runs on Run's engine, with its caps, quarantine,
// cancellation and Stats; the pruned space is not checkpointed. It
// holds the same instances as Run's when the prior is exact for this
// function, but not the same bytes: deferred attempts commit after the
// rest of their level, so discovery order, IDs and sequences can
// differ. AttemptedPhases excludes the completed diamonds; Stats counts
// each as an active attempt merged into its target. With a prior mined
// from *other* functions the enumeration is an approximation and the
// instance set may (rarely) diverge from Run's. Tests quantify the
// divergence; the threshold chooses how certain the prior must be (1.0
// = only pairs never once observed dependent).
func RunWithIndependencePruning(f *rtl.Func, opts Options, prior IndependencePrior, threshold float64) (*Result, PruneStats) {
	opts.CheckpointPath = ""
	e := rootEngine(f.Name, cleanRoot(f), opts)
	src := &diamondSource{live: liveSource{e}, res: e.res, prior: prior, threshold: threshold}
	e.src = src
	return e.run(), src.stats
}

// diamondSource defers every attempt whose diamond the prior vouches
// for to a second pass of its level. Before that pass, prepare resolves
// each deferred diamond serially from the edges committed so far;
// resolved attempts answer as a merge into the diamond's far corner,
// the rest are evaluated live.
type diamondSource struct {
	live      liveSource
	res       *Result
	prior     IndependencePrior
	threshold float64
	// completed maps a deferred (node ID, phase) to its diamond target.
	// Written by prepare before the second pass; read-only during it.
	completed map[attemptKey]int32
	stats     PruneStats
}

type attemptKey struct {
	node  int
	phase byte
}

func (s *diamondSource) eval(a attempt, lane int) outcome {
	if to, ok := s.completed[attemptKey{a.node.ID, a.phase.ID()}]; ok {
		return outcome{active: true, dup: to}
	}
	return s.live.eval(a, lane)
}

// split defers x at m when m was first reached by y and the prior
// rates x and y independent.
func (s *diamondSource) split(work []attempt) (first, second []attempt) {
	for _, a := range work {
		seq := a.node.Seq
		if s.prior != nil && seq != "" && s.prior.Independent(a.phase.ID(), seq[len(seq)-1]) >= s.threshold {
			second = append(second, a)
		} else {
			first = append(first, a)
		}
	}
	return first, second
}

// prepare resolves the deferred diamonds on the serial path, once the
// first pass has committed, and returns how many it completed: x at m
// (m = y at n) equals y at x-at-n. n is found by walking m's sequence
// from the root — each prefix of a Seq is the Seq of the node its
// phase's edge leads to.
func (s *diamondSource) prepare(second []attempt) int {
	nodes := s.res.Nodes
	edge := func(n *Node, phase byte) *Node {
		if n == nil {
			return nil
		}
		for _, e := range n.Edges {
			if e.Phase == phase {
				return nodes[e.To]
			}
		}
		return nil
	}
	s.completed = make(map[attemptKey]int32)
	for _, a := range second {
		m := a.node
		y := m.Seq[len(m.Seq)-1]
		n := nodes[0]
		for i := 0; i < len(m.Seq)-1; i++ {
			n = edge(n, m.Seq[i])
		}
		if to := edge(edge(n, a.phase.ID()), y); to != nil && to.Quarantine == "" {
			s.completed[attemptKey{m.ID, a.phase.ID()}] = int32(to.ID)
			s.stats.Skipped++
		} else {
			s.stats.Fallbacks++
		}
	}
	return len(s.completed)
}
