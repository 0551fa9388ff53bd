package search

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/fingerprint"
)

// The merge step reassembles one space from completed sub-spaces. The
// shards cannot simply be concatenated: node IDs must land in the
// serial engine's first-discovery order, Seq must be the
// lexicographically first shortest sequence *globally* (a node two
// shards both reach keeps the sequence the serial run would have found
// first), and the stats counters are part of the canonical hash. So
// the merge resumes the engine's own level loop from the base
// checkpoint, with shardSource answering every "what does phase p do
// at instance n?" question from an oracle harvested out of the shard
// results instead of evaluating the phase. Replay cost is pure index
// work: no cloning, no phase application, no verification.

// oracleChild is one harvested attempt outcome: the child instance a
// phase application produced at a parent (or the quarantine it died
// with). Absence from the oracle means the phase was dormant.
type oracleChild struct {
	key       string // full canonical key (flags byte + encoding)
	fp        fingerprint.FP
	state     byte
	numInstrs int
	cfKey     fingerprint.Key
	checkErr  string
	// seq is the harvesting space's own Seq for the child. It is
	// shard-relative — the level loop reconstructs sequences serially —
	// so it only names the child in conflict errors.
	seq string
	// quarantine, when non-empty, is the failure message with the
	// parent's shard-relative quoted Seq replaced by seqToken, so
	// records from different shards compare equal and answer can
	// re-embed the serial parent sequence.
	quarantine string
}

// seqToken marks where a quarantine message embedded the parent's
// quoted sequence. NUL bytes cannot appear in a %q rendering, so the
// token never collides with message content.
const seqToken = "\x00parent-seq\x00"

// attemptOracle maps a parent's canonical key and a phase ID to the
// harvested outcome. The outcome of a phase at an instance is a pure
// function of the two, so records from different shards must agree;
// record rejects any conflict (a corrupt or mismatched shard).
type attemptOracle map[string]map[byte]oracleChild

func (o attemptOracle) record(parentKey string, phase byte, c oracleChild) error {
	if c.quarantine == "" && c.key == "" {
		return fmt.Errorf("search: merge: child of phase %c has an empty canonical key", phase)
	}
	m := o[parentKey]
	if m == nil {
		m = make(map[byte]oracleChild)
		o[parentKey] = m
	}
	prev, ok := m[phase]
	if !ok {
		m[phase] = c
		return nil
	}
	// Same (instance, phase) seen again — by another shard, or via a
	// second edge path. seq is shard-relative, so it is excluded from
	// the consistency check.
	a, b := prev, c
	a.seq, b.seq = "", ""
	if a != b {
		return fmt.Errorf("search: merge: shards disagree on the outcome of phase %c (children %q and %q)", phase, prev.seq, c.seq)
	}
	return nil
}

// harvestOracle records every attempt outcome res evaluated: for each
// node the expanded filter admits, its edges become oracle entries
// (active children and quarantines); phases with no edge were dormant
// there. Quarantined nodes are never parents — they have no instance.
func harvestOracle(o attemptOracle, res *Result, expanded func(id int) bool) error {
	// Fetch every key once, in ID order. Retired keys sit in per-level
	// blobs and the keyStore caches one decompressed blob, so looking
	// parent and child up per edge would inflate a blob on every call.
	keys := make([]string, len(res.Nodes))
	for i := range keys {
		keys[i] = res.keys.get(i)
	}
	for _, n := range res.Nodes {
		if n.Quarantine != "" || !expanded(n.ID) {
			continue
		}
		pkey := keys[n.ID]
		for _, e := range n.Edges {
			c := res.Nodes[e.To]
			var oc oracleChild
			if c.Quarantine != "" {
				oc = oracleChild{quarantine: strings.ReplaceAll(c.Quarantine, strconv.Quote(n.Seq), seqToken)}
			} else {
				oc = oracleChild{
					key:       keys[c.ID],
					fp:        c.FP,
					state:     stateBits(c.State),
					numInstrs: c.NumInstrs,
					cfKey:     c.CFKey,
					checkErr:  c.CheckErr,
					seq:       c.Seq,
				}
			}
			if err := o.record(pkey, e.Phase, oc); err != nil {
				return err
			}
		}
	}
	return nil
}

// ShardSpace pairs one completed sub-space with the slice of the base
// frontier it was assigned (PartitionCheckpoint's second return value,
// in base discovery order).
type ShardSpace struct {
	Res *Result
	// FrontierIDs are the base-table node IDs of the frontier subset
	// this shard resumed from. They distinguish the shard's own
	// expansions from foreign frontier nodes, which sit edge-less in
	// its node table and would otherwise read as all-dormant leaves.
	FrontierIDs []int
}

// MergeShards reassembles the space of base's function from completed
// shard sub-spaces, producing the Result a serial run from the base
// checkpoint would have produced — byte-identical under canonical
// serialization. base must be a paused (or loaded) result whose
// checkpoint frontier the shards' FrontierIDs cover disjointly; every
// shard must be complete (no checkpoint, not aborted). The merge
// resumes the engine's level loop from a copy of the base frontier at
// the base run's Workers width, with the harvested oracle standing in
// for phase evaluation; if the base MaxSeqPerLevel/MaxNodes caps bind
// the merged result aborts with exactly the serial run's reason.
// Inconsistent shards (disagreeing outcomes, uncovered frontier nodes)
// fail with an error and leave base untouched.
func MergeShards(base *Result, shards []ShardSpace) (*Result, error) {
	cp := base.Checkpoint
	if cp == nil {
		return nil, fmt.Errorf("search: merge: base result has no checkpoint frontier")
	}
	if base.Aborted {
		return nil, fmt.Errorf("search: merge: base result is aborted (%s)", base.AbortReason)
	}
	if base.Equiv != nil {
		return nil, fmt.Errorf("search: merge: equivalence-collapsed bases are not shardable")
	}
	baseN := len(base.Nodes)
	covered := make(map[int]bool, len(cp.Frontier))
	oracle := attemptOracle{}
	for i, sh := range shards {
		s := sh.Res
		if s == nil {
			return nil, fmt.Errorf("search: merge: shard %d is missing", i)
		}
		if s.Checkpoint != nil {
			return nil, fmt.Errorf("search: merge: shard %d is not complete (checkpoint frontier remains)", i)
		}
		if s.Aborted {
			return nil, fmt.Errorf("search: merge: shard %d aborted: %s", i, s.AbortReason)
		}
		if s.FuncName != base.FuncName {
			return nil, fmt.Errorf("search: merge: shard %d enumerates %q, base is %q", i, s.FuncName, base.FuncName)
		}
		if len(s.Nodes) < baseN {
			return nil, fmt.Errorf("search: merge: shard %d has %d nodes, fewer than the %d-node base table", i, len(s.Nodes), baseN)
		}
		own := make(map[int]bool, len(sh.FrontierIDs))
		for _, id := range sh.FrontierIDs {
			if id < 0 || id >= baseN {
				return nil, fmt.Errorf("search: merge: shard %d claims frontier node %d, outside the %d-node base table", i, id, baseN)
			}
			if covered[id] {
				return nil, fmt.Errorf("search: merge: frontier node %d claimed by two shards", id)
			}
			covered[id] = true
			own[id] = true
		}
		// A shard expanded its own frontier subset plus everything it
		// discovered past the base table. Foreign frontier nodes were
		// never expanded there and must not be harvested as leaves.
		err := harvestOracle(oracle, s, func(id int) bool {
			return id >= baseN || own[id]
		})
		if err != nil {
			return nil, fmt.Errorf("search: merge: shard %d: %w", i, err)
		}
	}
	for _, n := range cp.Frontier {
		if !covered[n.ID] {
			return nil, fmt.Errorf("search: merge: frontier node %d not covered by any shard", n.ID)
		}
	}
	// The merge is bookkeeping, not enumeration: the warm-up's
	// telemetry, checkpointing, pause, deadline and context must not
	// fire again.
	ropts := base.opts
	ropts.CheckpointPath, ropts.StopAtFrontier = "", 0
	ropts.Timeout, ropts.Ctx = 0, nil
	ropts.Logger, ropts.Metrics, ropts.Tracer, ropts.ProgressInterval = nil, nil, nil, 0
	res := &Result{
		FuncName:        base.FuncName,
		AttemptedPhases: base.AttemptedPhases,
		Elapsed:         base.Elapsed,
		Stats:           base.Stats,
		root:            base.root,
		opts:            ropts,
		keys:            newKeyStore(),
	}
	// Copy the base table (base stays reusable for a fallback). Its
	// keys stay live until the level loop retires them.
	res.Nodes = make([]*Node, 0, baseN)
	for _, n := range base.Nodes {
		m := *n
		m.fn = nil
		res.Nodes = append(res.Nodes, &m)
		res.keys.put(m.ID, base.keys.get(n.ID))
	}
	res.Checkpoint = &Checkpoint{}
	for _, n := range cp.Frontier {
		res.Checkpoint.Frontier = append(res.Checkpoint.Frontier, res.Nodes[n.ID])
	}
	e := resumeEngine(res)
	e.src = shardSource{e, oracle}
	return e.run(), nil
}

// shardSource answers attempts from the shards' harvested oracle.
type shardSource struct {
	e      *engine
	oracle attemptOracle
}

func (s shardSource) eval(a attempt, _ int) outcome { return s.e.answer(s.oracle, a) }

// answer looks attempt a up in an oracle and resolves an active
// record against the striped index, filling every outcome field but
// the instance: the parent's key row gives the child, a quarantine
// record is re-embedded with the serial parent sequence, and no record
// means the phase was dormant. A shard whose own Seq for the parent
// ended in this phase skipped the attempt entirely, but that proves
// the same thing — an active phase is never active twice in a row
// (Section 4.1).
func (e *engine) answer(oracle attemptOracle, a attempt) outcome {
	rec, ok := oracle[e.res.keys.get(a.node.ID)][a.phase.ID()]
	if !ok {
		return outcome{}
	}
	if rec.quarantine != "" {
		return outcome{quarantine: strings.ReplaceAll(rec.quarantine, seqToken, strconv.Quote(a.node.Seq))}
	}
	o := outcome{
		active:    true,
		st:        bitsState(rec.state),
		fp:        rec.fp,
		checkErr:  rec.checkErr,
		numInstrs: rec.numInstrs,
		cfKey:     rec.cfKey,
	}
	o.dup, o.pend = e.index.resolve(rec.key[0], rec.fp, []byte(rec.key[1:]))
	return o
}
