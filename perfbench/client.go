package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// request is one enumerate call the load generator sends: a corpus
// function by name, or its whole benchmark program as mini-C source.
type request struct {
	name   string // "bench/func"
	equiv  bool
	source bool
}

// sample is one request as the client saw it: POST /v1/enumerate, then
// GET /v1/space/{key} until the last byte.
type sample struct {
	req   request
	reqID string
	phase string // "setup", "fill", "cold", "readback" or "warm"
	cycle int    // the cold cycle that sent it
	start time.Time
	post  time.Duration
	get   time.Duration
	total time.Duration

	cache     string
	key       string
	spaceHash string
	attempted int
	digest    [32]byte
	err       string
	traced    bool // sent while the tracer was on
}

// enumerateReply is the part of the POST /v1/enumerate response the
// benchmark reads.
type enumerateReply struct {
	Key             string `json:"key"`
	SpaceHash       string `json:"space_hash"`
	AttemptedPhases int    `json:"attempted_phases"`
	Cache           string `json:"cache"`
	Error           string `json:"error"`
}

// client drives one server. bodies keeps the first copy of every
// distinct space file fetched, for the hash gate and the interpreter
// oracle after the timed loop.
type client struct {
	base   string
	hc     *http.Client
	bodies *bodyStore
	srcs   map[string]string // "bench/func" -> program source
	tr     *tracer           // nil outside traced stretches
}

type bodyStore struct {
	mu sync.Mutex
	m  map[[32]byte][]byte
}

func (b *bodyStore) keep(d [32]byte, body []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.m[d]; !ok {
		b.m[d] = body
	}
}

func (b *bodyStore) get(d [32]byte) []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.m[d]
}

// requestTimeout bounds one POST; a timed-out request counts as failed.
const requestTimeout = 120 * time.Second

func (c *client) body(r request) ([]byte, error) {
	doc := map[string]any{}
	bench, fn := splitName(r.name)
	if r.source {
		doc["source"] = c.srcs[r.name]
		doc["func"] = fn
	} else {
		doc["bench"], doc["func"] = bench, fn
	}
	if r.equiv {
		doc["options"] = map[string]any{"equiv": true}
	}
	return json.Marshal(doc)
}

func splitName(name string) (bench, fn string) {
	for i := 0; i < len(name); i++ {
		if name[i] == '/' {
			return name[:i], name[i+1:]
		}
	}
	return "", name
}

// do sends one request and fetches its space.
func (c *client) do(ctx context.Context, r request, reqID, phase string) sample {
	s := c.fetch(ctx, r, reqID, phase)
	if c.tr != nil && !s.start.IsZero() {
		end := s.start.Add(s.post + s.get)
		root := c.tr.add(0, "request", reqID, s.start, end)
		c.tr.add(root, "http.post", reqID, s.start, s.start.Add(s.post))
		if s.get > 0 {
			c.tr.add(root, "http.get", reqID, end.Add(-s.get), end)
		}
	}
	return s
}

func (c *client) fetch(ctx context.Context, r request, reqID, phase string) sample {
	s := sample{req: r, reqID: reqID, phase: phase}
	body, err := c.body(r)
	if err != nil {
		s.err = err.Error()
		return s
	}
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	s.start = time.Now()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/enumerate", bytes.NewReader(body))
	if err != nil {
		s.err = err.Error()
		return s
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Request-ID", reqID)
	resp, err := c.hc.Do(hreq)
	if err != nil {
		s.err = err.Error()
		return s
	}
	var rep enumerateReply
	derr := json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	s.post = time.Since(s.start)
	if resp.StatusCode != http.StatusOK || derr != nil {
		s.err = fmt.Sprintf("enumerate: status %d %s", resp.StatusCode, rep.Error)
		return s
	}
	s.cache, s.key, s.spaceHash, s.attempted = rep.Cache, rep.Key, rep.SpaceHash, rep.AttemptedPhases

	getStart := time.Now()
	greq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/space/"+rep.Key, nil)
	if err != nil {
		s.err = err.Error()
		return s
	}
	gresp, err := c.hc.Do(greq)
	if err != nil {
		s.err = err.Error()
		return s
	}
	space, err := io.ReadAll(gresp.Body)
	gresp.Body.Close()
	s.get = time.Since(getStart)
	s.total = time.Since(s.start)
	if gresp.StatusCode != http.StatusOK || err != nil {
		s.err = fmt.Sprintf("space: status %d %v", gresp.StatusCode, err)
		return s
	}
	s.digest = sha256.Sum256(space)
	c.bodies.keep(s.digest, space)
	return s
}

// getJSON decodes a GET endpoint of the server.
func (c *client) getJSON(path string, out any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// percentile returns the q-quantile of the durations in milliseconds,
// interpolating linearly between the two nearest ranks (0 when empty).
func percentile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return ms(s[len(s)-1])
	}
	return ms(s[i]) + (pos-float64(i))*(ms(s[i+1])-ms(s[i]))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapSampler tracks the peak of the heap objects' bytes (live plus
// not yet swept) while it runs, sampling runtime/metrics every few
// milliseconds.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}
