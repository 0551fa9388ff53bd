package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"repro/internal/mibench"
	"repro/internal/rtl"
	"repro/internal/search"
)

// The two corpus bands the workloads draw from, by default-tier
// instance count: the medium band (500-10,000 instances) is where
// enumeration does real work, the small band (100-2,000) gives a warm
// working set that fills in seconds.
var (
	mediumBand = []string{
		"bitcount/btbl_init", "fft/fft_fixed", "fft/fft_fill", "fft/find_peak",
		"fft/fft_energy", "fft/fft_main", "jpeg/set_quant_table", "jpeg/quantize_block",
		"jpeg/zigzag_block", "jpeg/get_code", "jpeg/idct_pass", "jpeg/dequantize_block",
		"jpeg/downsample_row", "jpeg/rle_block", "sha/sha_transform", "sha/byte_reverse",
		"sha/sha_update", "stringsearch/bmh_search", "stringsearch/bmha_search",
		"stringsearch/bmhi_search", "stringsearch/brute_search", "stringsearch/build_text",
	}
	smallBand = []string{
		"dijkstra/path_len", "dijkstra/count_near", "dijkstra/dijkstra_main",
		"fft/fix_sin", "fft/bit_reverse", "fft/fix_mag", "jpeg/fdct_pass",
		"jpeg/set_quant_table", "jpeg/get_code", "jpeg/idct_pass", "sha/byte_reverse",
		"stringsearch/bmh_search", "stringsearch/bmhi_search", "stringsearch/brute_search",
		"stringsearch/build_text", "stringsearch/search_main",
	}
)

// corpusFunc is one MiBench function together with the program that
// contains it (the interpreter oracle substitutes instances into it).
type corpusFunc struct {
	name string // "bench/func"
	fn   *rtl.Func
	prog mibench.Program
	rtl  *rtl.Program
}

// loadCorpus compiles the suite and indexes it by "bench/func".
func loadCorpus() (map[string]*corpusFunc, error) {
	out := map[string]*corpusFunc{}
	for _, p := range mibench.All() {
		prog, err := p.Compile()
		if err != nil {
			return nil, err
		}
		for _, f := range prog.Funcs {
			name := p.Name + "/" + f.Name
			out[name] = &corpusFunc{name: name, fn: f, prog: p, rtl: prog}
		}
	}
	return out, nil
}

// refEntry is the serial engine's answer for one function: the
// canonical hash of its default-tier and equivalence-tier spaces.
type refEntry struct {
	Default   string `json:"default"`
	Equiv     string `json:"equiv"`
	Nodes     int    `json:"nodes"`
	Attempted int    `json:"attempted"`
}

// refs maps "bench/func" to its reference hashes.
type refs map[string]refEntry

func (r refs) hash(name string, equiv bool) string {
	e := r[name]
	if equiv {
		return e.Equiv
	}
	return e.Default
}

func readRefs(path string) (refs, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading reference hashes: %w", err)
	}
	var r refs
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	for _, name := range append(append([]string{}, mediumBand...), smallBand...) {
		if e, ok := r[name]; !ok || e.Default == "" || e.Equiv == "" {
			return nil, fmt.Errorf("%s has no reference hashes for %s", path, name)
		}
	}
	return r, nil
}

// genRefs enumerates every band function serially (Workers: 1) in both
// tiers and writes the canonical hashes to path.
func genRefs(path string) error {
	corpus, err := loadCorpus()
	if err != nil {
		return err
	}
	names := append(append([]string{}, mediumBand...), smallBand...)
	sort.Strings(names)
	out := refs{}
	for _, name := range names {
		if _, done := out[name]; done {
			continue
		}
		cf := corpus[name]
		if cf == nil {
			return fmt.Errorf("no corpus function %s", name)
		}
		start := time.Now()
		var e refEntry
		for _, equiv := range []bool{false, true} {
			res := search.Run(cf.fn, search.Options{Workers: 1, Equiv: equiv})
			if res.Aborted {
				return fmt.Errorf("%s aborted: %s", name, res.AbortReason)
			}
			h, err := res.CanonicalHash()
			if err != nil {
				return err
			}
			if equiv {
				e.Equiv = h
			} else {
				e.Default, e.Nodes, e.Attempted = h, len(res.Nodes), res.AttemptedPhases
			}
		}
		out[name] = e
		fmt.Fprintf(os.Stderr, "%-28s %6d nodes %8.2fs\n", name, e.Nodes, time.Since(start).Seconds())
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// shuffled returns a seeded permutation of names.
func shuffled(rng *rand.Rand, names []string) []string {
	out := append([]string(nil), names...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
