package distcl

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/mc"
	"repro/internal/search"
)

const sumSrc = `
int a[16] = {5, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3};
int sum(int n) {
    int i;
    int s = 0;
    for (i = 0; i < n; i++) s += a[i];
    return s;
}`

// completion is what the fake coordinator saw on /v1/dist/complete:
// the request, and the worker's scratch checkpoint as it stood while
// the completion was in flight.
type completion struct {
	req     CompleteRequest
	scratch []byte
}

// runOneAssignment serves a Worker one assignment from a minimal fake
// coordinator whose heartbeat cadence is an hour — so the search
// writes no periodic checkpoint — and returns the completion the
// worker delivered.
func runOneAssignment(t *testing.T, a Assignment, faults string) completion {
	t.Helper()
	scratch := t.TempDir()
	done := make(chan completion, 1)
	var polled atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var out any = struct{}{}
		switch r.URL.Path {
		case PathRegister:
			out = RegisterResponse{WorkerID: "w1", LeaseTTLMillis: 3 * 3600_000,
				HeartbeatMillis: 3600_000, PollWaitMillis: 20}
		case PathPoll:
			if polled.Swap(true) {
				time.Sleep(20 * time.Millisecond)
				w.WriteHeader(http.StatusNoContent)
				return
			}
			out = a
		case PathComplete:
			var req CompleteRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				t.Error(err)
			}
			b, _ := os.ReadFile(filepath.Join(scratch, a.AssignmentID+".g1.ckpt.space.gz"))
			done <- completion{req, b}
			out = CompleteResponse{Status: "accepted"}
		}
		json.NewEncoder(w).Encode(out) //nolint:errcheck // test server
	}))
	defer ts.Close()
	wk, err := NewWorker(WorkerConfig{
		Client:        fastClient(t, ts, Config{}),
		ScratchDir:    scratch,
		SearchWorkers: 1,
		Faults:        faultinject.MustParse(faults),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan error, 1)
	go func() { stopped <- wk.Run(ctx) }()
	var c completion
	select {
	case c = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("worker never completed its assignment")
	}
	cancel()
	if err := <-stopped; err != nil {
		t.Fatal(err)
	}
	return c
}

// TestWorkerCompletesWithFinalCheckpointBytes: a default-tier
// completion ships the worker's final scratch checkpoint as is — that
// file is the complete space — instead of encoding it again; a failed
// final write or a derived equivalence tier is encoded from the result.
// Every payload loads as a complete space hashing to what it claims
// and to the serial run.
func TestWorkerCompletesWithFinalCheckpointBytes(t *testing.T) {
	prog, err := mc.Compile(sumSrc)
	if err != nil {
		t.Fatal(err)
	}
	fn := prog.Func("sum")
	serial := func(equiv bool) string {
		h, err := search.Run(fn, search.Options{Workers: 1, Equiv: equiv}).CanonicalHash()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	docs, _, err := search.PartitionCheckpoint(search.Run(fn, search.Options{StopAtFrontier: 1}), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name         string
		equiv        bool
		faults       string
		scratchBytes bool
	}{
		{"default tier", false, "", true},
		{"failed final write", false, "ckptfail=1", false},
		{"derived equiv tier", true, "", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := runOneAssignment(t, Assignment{
				AssignmentID:  "a1",
				Key:           "k",
				FuncName:      fn.Name,
				Options:       SearchOptions{DeriveEquiv: tc.equiv},
				CheckpointB64: base64.StdEncoding.EncodeToString(docs[0]),
				LeaseGen:      1,
			}, tc.faults)
			if c.req.Aborted {
				t.Fatalf("worker aborted: %s", c.req.AbortReason)
			}
			space, err := base64.StdEncoding.DecodeString(c.req.SpaceB64)
			if err != nil {
				t.Fatal(err)
			}
			if got := bytes.Equal(space, c.scratch); got != tc.scratchBytes {
				t.Fatalf("payload is the scratch checkpoint: %v, want %v", got, tc.scratchBytes)
			}
			res, err := search.Load(bytes.NewReader(space))
			if err != nil {
				t.Fatal(err)
			}
			if res.Checkpoint != nil || res.Aborted {
				t.Fatal("payload is not a complete space")
			}
			h, err := res.CanonicalHash()
			if err != nil {
				t.Fatal(err)
			}
			if want := serial(tc.equiv); h != c.req.SpaceHash || h != want {
				t.Fatalf("payload hashes %s, claimed %s, serial run %s", h, c.req.SpaceHash, want)
			}
		})
	}
}
