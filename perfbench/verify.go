package main

import (
	"bytes"
	"fmt"
	"reflect"

	"repro/internal/interp"
	"repro/internal/rtl"
	"repro/internal/search"
)

// verifier is the correctness gate, run after the timed loop. A served
// space passes when its reported space_hash and the CanonicalHash of
// the bytes actually fetched both equal the serial engine's reference
// hash, and — for default-tier spaces — when its smallest and largest
// leaves compute what the unoptimized program computes.
type verifier struct {
	refs   refs
	corpus map[string]*corpusFunc
	bodies *bodyStore

	hashed map[[32]byte]string // fetched bytes -> canonical hash or error
	oracle map[string]string   // canonical hash -> "" or the oracle failure
	base   map[string]*observation
}

// observation is what one whole-program run shows: the driver's return
// value, its __trace stream and every global's final contents.
type observation struct {
	ret     int32
	trace   []int32
	globals map[string][]int32
}

func newVerifier(r refs, corpus map[string]*corpusFunc, bodies *bodyStore) *verifier {
	return &verifier{refs: r, corpus: corpus, bodies: bodies,
		hashed: map[[32]byte]string{}, oracle: map[string]string{}, base: map[string]*observation{}}
}

// check returns "" when s is a correct answer, else the reason.
func (v *verifier) check(s *sample) string {
	if s.err != "" {
		return s.err
	}
	want := v.refs.hash(s.req.name, s.req.equiv)
	if s.spaceHash != want {
		return fmt.Sprintf("%s: space_hash %.12s, reference %.12s", s.req.name, s.spaceHash, want)
	}
	got, ok := v.hashed[s.digest]
	if !ok {
		got = v.hashBytes(s.digest)
		v.hashed[s.digest] = got
	}
	if got != want {
		return fmt.Sprintf("%s: fetched bytes hash %.12s, reference %.12s", s.req.name, got, want)
	}
	if s.req.equiv {
		return ""
	}
	msg, ok := v.oracle[want]
	if !ok {
		msg = v.runOracle(s.req.name, v.bodies.get(s.digest))
		v.oracle[want] = msg
	}
	return msg
}

func (v *verifier) hashBytes(d [32]byte) string {
	res, err := search.Load(bytes.NewReader(v.bodies.get(d)))
	if err != nil {
		return "load: " + err.Error()
	}
	h, err := res.CanonicalHash()
	if err != nil {
		return "hash: " + err.Error()
	}
	return h
}

// runOracle runs the smallest and largest leaves of the space through
// the interpreter, each substituted into its MiBench program and driven
// by the program's Driver, and compares them with the unoptimized run.
func (v *verifier) runOracle(name string, space []byte) string {
	cf := v.corpus[name]
	if cf == nil {
		return "oracle: unknown function " + name
	}
	res, err := search.Load(bytes.NewReader(space))
	if err != nil {
		return "oracle: " + err.Error()
	}
	want, ok := v.base[cf.prog.Name]
	if !ok {
		want, err = v.observe(cf, nil)
		if err != nil {
			return "oracle: unoptimized run: " + err.Error()
		}
		v.base[cf.prog.Name] = want
	}
	leaves := res.Leaves()
	if len(leaves) == 0 {
		return "oracle: space has no leaves"
	}
	lo, hi := leaves[0], leaves[0]
	for _, n := range leaves {
		if n.NumInstrs < lo.NumInstrs {
			lo = n
		}
		if n.NumInstrs > hi.NumInstrs {
			hi = n
		}
	}
	for _, n := range []*search.Node{lo, hi} {
		got, err := v.observe(cf, res.Instance(n))
		if err != nil {
			return fmt.Sprintf("oracle: %s leaf %q: %v", name, n.Seq, err)
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Sprintf("oracle: %s leaf %q (%d instrs) changes the program's behaviour", name, n.Seq, n.NumInstrs)
		}
	}
	return ""
}

// observe runs cf's program, with inst substituted for cf's function
// when non-nil.
func (v *verifier) observe(cf *corpusFunc, inst *rtl.Func) (*observation, error) {
	prog := cf.rtl.Clone()
	if inst != nil {
		for i := range prog.Funcs {
			if prog.Funcs[i].Name == cf.fn.Name {
				prog.Funcs[i] = inst
			}
		}
	}
	m := interp.New(prog, interp.Limits{})
	r, err := m.Run(cf.prog.Driver, cf.prog.DriverArgs...)
	if err != nil {
		return nil, err
	}
	return &observation{ret: r.Ret, trace: r.Trace, globals: m.GlobalsSnapshot()}, nil
}
