// Command perfbench is the benchmark of the enumeration service. One
// process starts internal/server on loopback (plus two in-process
// internal/distcl workers for the sharded workload), generates load
// from a seed, checks every answer against the serial engine's
// reference hashes and an interpreter oracle, and prints its metrics.
//
//	perfbench -workload cold-local -seed 1 -seconds 20 -trace 0
//
// With -trace 1 the run records bench-side spans around every call it
// makes, replays the drawn functions layer by layer through the
// public search/mc APIs, and reports per-layer metrics instead of the
// end-to-end ones. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// -gen-refs FILE regenerates the reference hashes (serial search.Run,
// Workers 1, both tiers) for every band function.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workdir  string
	// tiny shrinks every draw to a smoke-test size (self-test).
	tiny bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = []string{"cold-local", "cold-sharded", "warm-serve"}

func main() {
	var o options
	var traceFlag int
	var refsPath, genPath string
	var seconds float64
	flag.StringVar(&o.workload, "workload", "", "cold-local, cold-sharded or warm-serve")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated load")
	flag.Float64Var(&seconds, "seconds", 20, "how long the timed loop runs")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports the per-layer metrics of a traced run")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for caches, scratch files and traces")
	flag.StringVar(&refsPath, "refs", "perfbench/refs.json", "reference hashes")
	flag.StringVar(&genPath, "gen-refs", "", "write reference hashes to this file and exit")
	flag.Parse()
	o.seconds = time.Duration(seconds * float64(time.Second))
	o.trace = traceFlag == 1

	if genPath != "" {
		if err := genRefs(genPath); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	r, err := readRefs(refsPath)
	if err == nil {
		var rep *report
		var table string
		if rep, table, err = run(o, r); err == nil {
			fmt.Print(table)
			line, _ := json.Marshal(rep)
			fmt.Println(string(line))
			return
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// bench is one run's state.
type bench struct {
	o      options
	refs   refs
	corpus map[string]*corpusFunc
	cl     *client
	tr     *tracer // nil unless -trace 1
	rng    *rand.Rand
	dir    string
	nextID atomic.Int64

	samples []sample  // timed requests and the cold rounds' read-backs
	fill    []sample  // warm-serve's cache fill
	setups  []float64 // seconds
	// wall is the wall time of the timed phases: the cold phases of
	// the cold rounds, or warm-serve's client loop.
	wall     time.Duration
	fillWall time.Duration
	peaks    []float64 // peak heap MB of each timed phase
	drawn    []string  // the functions requested, in seeded order
	cycle    int       // the cold cycle in progress
	info     map[string]float64

	counters   map[string]int64
	cpuWaitNS  int64
	cpuWaits   int64
	flightRecs map[string]flightRecord
}

func (b *bench) add(s sample, traced bool) {
	s.traced, s.cycle = traced, b.cycle
	b.samples = append(b.samples, s)
}

// run executes one workload and returns its report and the printable
// metric table.
func run(o options, r refs) (*report, string, error) {
	corpus, err := loadCorpus()
	if err != nil {
		return nil, "", err
	}
	b := &bench{
		o: o, refs: r, corpus: corpus,
		rng:        rand.New(rand.NewSource(o.seed)),
		info:       map[string]float64{},
		counters:   map[string]int64{},
		flightRecs: map[string]flightRecord{},
	}
	if o.trace {
		b.tr = &tracer{}
	}
	b.dir, err = os.MkdirTemp(o.workdir, "run-"+o.workload+"-")
	if err != nil {
		return nil, "", err
	}
	defer os.RemoveAll(b.dir)
	srcs := map[string]string{}
	for name, cf := range corpus {
		srcs[name] = cf.prog.Source
	}
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	defer hc.CloseIdleConnections()
	b.cl = &client{hc: hc, bodies: &bodyStore{m: map[[32]byte][]byte{}}, srcs: srcs}

	local, sharded, entries := coldLocalFuncs, coldShardedFuncs, 2*len(warmFuncs)
	if o.tiny {
		local, sharded, entries = local[:1], sharded[:1], 4
	}
	switch o.workload {
	case "cold-local":
		err = b.runCold(local, 0)
	case "cold-sharded":
		err = b.runCold(sharded, 2)
	case "warm-serve":
		err = b.runWarm(entries)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		return nil, "", err
	}

	rep := &report{Metrics: map[string]metric{}}
	ver := newVerifier(b.refs, b.corpus, b.cl.bodies)
	var failures []string
	for _, set := range [][]sample{b.fill, b.samples} {
		for i := range set {
			rep.Attempted++
			if msg := ver.check(&set[i]); msg != "" {
				rep.Failed++
				set[i].err = msg
				if len(failures) < 5 {
					failures = append(failures, msg)
				}
			}
		}
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
	}

	e2e := b.endToEnd()
	if o.trace {
		layers, err := b.perLayer()
		if err != nil {
			return nil, "", err
		}
		rep.Metrics = layers
		if err := b.tr.write(filepath.Join(o.workdir, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))); err != nil {
			return nil, "", err
		}
	} else {
		rep.Metrics = e2e
	}
	return rep, b.table(rep, e2e), nil
}

// endToEnd computes the user-visible metrics of the timed loop. The
// tier latencies come from the cache hits on default-tier spaces, as
// latency_p50_ms does: an equivalence-tier space is smaller, so mixing
// the tiers would put a cold workload's median in the gap between
// them. On the cold workloads the hits are their read-backs;
// everything else comes from the timed phases. warm-serve runs no
// phase in its timed loop, so its attempts_per_s is the rate of the
// cache fill, its only enumerations.
func (b *bench) endToEnd() map[string]metric {
	var lat, eqLat, mem, disk []time.Duration
	var requests int
	for _, s := range b.samples {
		if s.err != "" {
			continue
		}
		if s.phase == "cold" || s.phase == "warm" {
			if s.req.equiv {
				eqLat = append(eqLat, s.total)
			} else {
				lat = append(lat, s.total)
			}
			requests++
		}
		switch {
		case s.req.equiv:
		case s.cache == "mem":
			mem = append(mem, s.total)
		case s.cache == "disk":
			disk = append(disk, s.total)
		}
	}
	attempted, attemptWall := 0, b.wall
	enumerated := b.samples
	if b.o.workload == "warm-serve" {
		enumerated, attemptWall = b.fill, b.fillWall
	}
	for _, s := range enumerated {
		if s.err == "" && s.cache == "miss" {
			attempted += s.attempted
		}
	}
	b.info["latency_samples"] = float64(len(lat))
	b.info["equiv_latency_samples"] = float64(len(eqLat))
	b.info["mem_samples"] = float64(len(mem))
	b.info["disk_samples"] = float64(len(disk))
	b.info["setup_samples"] = float64(len(b.setups))
	// The memory tier's tail, printed with its sample count but not
	// bounded: sub-millisecond tails on this class of host move with
	// GC timing more than with the program.
	b.info["mem_latency_p90_ms"] = percentile(mem, 0.90)
	b.info["mem_latency_p99_ms"] = percentile(mem, 0.99)
	b.info["failed_frac"] = 0
	if n := len(b.samples) + len(b.fill); n > 0 {
		failed := 0
		for _, set := range [][]sample{b.fill, b.samples} {
			for _, s := range set {
				if s.err != "" {
					failed++
				}
			}
		}
		b.info["failed_frac"] = float64(failed) / float64(n)
	}
	return map[string]metric{
		"setup_s":              {median(b.setups), "s"},
		"latency_p50_ms":       {percentile(lat, 0.50), "ms"},
		"equiv_latency_p50_ms": {percentile(eqLat, 0.50), "ms"},
		"attempts_per_s":       {float64(attempted) / attemptWall.Seconds(), "1/s"},
		"mem_latency_p50_ms":   {percentile(mem, 0.50), "ms"},
		"disk_latency_p50_ms":  {percentile(disk, 0.50), "ms"},
		"disk_latency_p90_ms":  {percentile(disk, 0.90), "ms"},
		"requests_per_s":       {float64(requests) / b.wall.Seconds(), "1/s"},
		"peak_heap_mb":         {median(b.peaks), "MB"},
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// table renders the metrics for a reader, with the sample counts and
// the failure fraction the JSON line carries as attempted/failed.
func (b *bench) table(rep *report, e2e map[string]metric) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "workload %s  seed %d  trace %v  correct %v  attempted %d  failed %d\n",
		b.o.workload, b.o.seed, b.o.trace, rep.Correct, rep.Attempted, rep.Failed)
	write := func(ms map[string]metric) {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&sb, "  %-36s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
		}
	}
	write(e2e)
	fmt.Fprintf(&sb, "  %-36s %14.4f %s\n", "failed_frac", b.info["failed_frac"], "ratio")
	info := map[string]metric{}
	for k, v := range b.info {
		if k != "failed_frac" {
			info[k] = metric{v, "info"}
		}
	}
	write(info)
	if b.o.trace {
		sb.WriteString("per-layer (traced run):\n")
		write(rep.Metrics)
	}
	return sb.String()
}
