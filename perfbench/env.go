package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/distcl"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// env is one server under test on loopback, plus the in-process fleet
// workers of a sharded workload.
type env struct {
	srv     *server.Server
	hs      *http.Server
	served  chan error
	reg     *telemetry.Registry
	cl      *client
	workers []*fleetWorker
	base    telemetry.Snapshot // registry state at mark
}

type fleetWorker struct {
	cancel context.CancelFunc
	done   chan error
}

// envConfig is what varies between the workloads' servers.
type envConfig struct {
	dir        string
	memEntries int
	fleet      int // in-process distcl workers; >= 2 turns sharding on
}

// startEnv starts the server (and its fleet) and waits until it
// answers. Its cost is part of the workload's set-up time.
func startEnv(ec envConfig, cl *client) (*env, error) {
	if err := os.MkdirAll(ec.dir, 0o755); err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	cfg := server.Config{
		Dir:             filepath.Join(ec.dir, "cache"),
		MemEntries:      ec.memEntries,
		Workers:         2,
		QueueDepth:      64,
		DefaultDeadline: requestTimeout,
		Registry:        reg,
		FlightLogSize:   1 << 15,
	}
	if ec.fleet > 0 {
		cfg.ShardFanout = ec.fleet
		cfg.DistLeaseTTL = 10 * time.Second
		cfg.DistPollWait = 2 * time.Second
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	e := &env{srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1), reg: reg}
	go func() { e.served <- e.hs.Serve(ln) }()
	c := *cl
	c.base = "http://" + ln.Addr().String()
	e.cl = &c

	for i := 0; i < ec.fleet; i++ {
		if err := e.addWorker(fmt.Sprintf("w%d", i+1), filepath.Join(ec.dir, fmt.Sprintf("worker%d", i+1))); err != nil {
			e.close()
			return nil, err
		}
	}
	if ec.fleet > 0 {
		if err := e.waitFleet(ec.fleet); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

func (e *env) addWorker(id, scratch string) error {
	wk, err := distcl.NewWorker(distcl.WorkerConfig{
		Client:        distcl.NewClient(distcl.Config{BaseURL: e.cl.base, Timeout: 30 * time.Second}),
		ID:            id,
		ScratchDir:    scratch,
		SearchWorkers: 1,
		DrainTimeout:  5 * time.Second,
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	fw := &fleetWorker{cancel: cancel, done: make(chan error, 1)}
	go func() { fw.done <- wk.Run(ctx) }()
	e.workers = append(e.workers, fw)
	return nil
}

// waitFleet blocks until n workers are live on the coordinator.
func (e *env) waitFleet(n int) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var h struct {
			Fleet struct {
				WorkersLive int `json:"workers_live"`
			} `json:"fleet"`
		}
		if err := e.cl.getJSON("/healthz", &h); err == nil && h.Fleet.WorkersLive >= n {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return errors.New("fleet workers did not register within 30s")
}

// close drains the fleet, then the HTTP listener, then the server, and
// waits for each to finish.
func (e *env) close() {
	for _, w := range e.workers {
		w.cancel()
	}
	for _, w := range e.workers {
		<-w.done
	}
	e.hs.Close()
	<-e.served
	e.srv.Close()
}

// mark starts counting the registry from its current state.
func (e *env) mark() { e.base = e.reg.Snapshot() }

// counters returns what the registry counted since mark (or start):
// counter series summed by family, folding the labeled series
// (dist.assignments{worker="w1"}, ...) into their base name, and the
// histograms' count and sum.
func (e *env) counters() (map[string]int64, map[string]telemetry.HistogramSnapshot) {
	snap := e.reg.Snapshot()
	out := map[string]int64{}
	for name, v := range snap.Counters {
		v -= e.base.Counters[name]
		if fam, _, ok := telemetry.ParseSeries(name); ok {
			name = fam
		}
		out[name] += v
	}
	hs := map[string]telemetry.HistogramSnapshot{}
	for name, h := range snap.Histograms {
		b := e.base.Histograms[name]
		hs[name] = telemetry.HistogramSnapshot{Count: h.Count - b.Count, Sum: h.Sum - b.Sum}
	}
	return out, hs
}

// flightRecord is the part of a GET /v1/debug/flights record the
// traced run reads.
type flightRecord struct {
	RequestID   string `json:"request_id"`
	Event       string `json:"event"`
	Coalesced   bool   `json:"coalesced"`
	QueueWaitMS int64  `json:"queue_wait_ms"`
	EnumerateMS int64  `json:"enumerate_ms"`
	SerializeMS int64  `json:"serialize_ms"`
	TotalMS     int64  `json:"total_ms"`
}

// flights returns the request records of the flight recorder, keyed by
// request ID.
func (e *env) flights() (map[string]flightRecord, error) {
	var doc struct {
		Flights []flightRecord `json:"flights"`
	}
	if err := e.cl.getJSON("/v1/debug/flights", &doc); err != nil {
		return nil, err
	}
	out := make(map[string]flightRecord, len(doc.Flights))
	for _, f := range doc.Flights {
		if f.Event == "" && f.RequestID != "" {
			out[f.RequestID] = f
		}
	}
	return out, nil
}
