package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/queue"
)

// brokerPostRoutes are the broker's POST routes: every one decodes its
// request body through readJSON.
var brokerPostRoutes = []string{
	SubmitBatchPath, CancelPath, HelloPath, DrainPath, PollPath,
	RenewPath, DonePath, ReplicatePath, PromotePath, FencePath,
}

// fuzzBroker is a fresh in-memory broker server with one registered
// worker, one submitted job and its one task leased to the worker.
type fuzzBroker struct {
	*BrokerServer
	worker, job string
	lease       api.Lease
}

func newFuzzBroker(t testing.TB) fuzzBroker {
	t.Helper()
	b := queue.New(queue.Config{})
	hello, err := b.Hello(api.WorkerHello{Proto: api.Version, Name: "fw", Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	fb := fuzzBroker{BrokerServer: NewBrokerServer(b, "qb-fuzz"), worker: hello.WorkerID}
	fb.job = submitJob(t, b, api.TaskSpec{Proto: api.Version, Job: "fz", Shard: 0, Seed: 7, Key: "fz@hash"})
	poll, err := b.Poll(context.Background(), api.PollRequest{Proto: api.Version, WorkerID: fb.worker, Max: 1})
	if err != nil || len(poll.Leases) != 1 {
		t.Fatalf("grant the fuzz lease: %v (%d leases)", err, len(poll.Leases))
	}
	fb.lease = poll.Leases[0]
	return fb
}

// FuzzBrokerRequest sends one body to one of the broker's POST routes
// through BrokerServer.ServeHTTP. The request's context expires after a
// few milliseconds, so long polls return. It never panics, a 200 body
// is valid JSON, and any other reply decodes through DecodeError to a
// typed *api.Error.
func FuzzBrokerRequest(f *testing.F) {
	fb := newFuzzBroker(f)
	l := fb.lease
	seeds := map[string]any{
		SubmitBatchPath: api.JobSubmitBatch{Proto: api.Version, Jobs: []api.JobSubmit{{Proto: api.Version,
			Tasks: []api.TaskSpec{{Proto: api.Version, Job: "s", Shard: 0, Seed: 7, Key: "s@hash"}}}}},
		CancelPath: api.CancelRequest{Proto: api.Version, ID: fb.job},
		HelloPath:  api.WorkerHello{Proto: api.Version, Name: "fw2", Capacity: 2},
		DrainPath:  api.DrainRequest{Proto: api.Version, WorkerID: fb.worker},
		PollPath:   api.PollRequest{Proto: api.Version, WorkerID: fb.worker, Max: 1, WaitNS: int64(time.Second)},
		RenewPath:  api.LeaseRenew{Proto: api.Version, WorkerID: fb.worker, LeaseIDs: []string{l.ID}},
		DonePath: api.TaskDone{Proto: api.Version, WorkerID: fb.worker, LeaseID: l.ID,
			Result: api.TaskResult{Proto: api.Version, Job: l.Task.Job, Shard: l.Task.Shard, Key: l.Task.Key,
				Text: "r", DurationNS: 1}},
		ReplicatePath: api.ReplicateRequest{Proto: api.Version, Segment: 1, WaitNS: int64(time.Second)},
		PromotePath:   api.PromoteRequest{Proto: api.Version},
		FencePath:     api.FenceRequest{Proto: api.Version, Epoch: 2, Primary: "http://10.0.0.9:9741"},
	}
	for i, path := range brokerPostRoutes {
		body, err := json.Marshal(seeds[path])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), body)
	}
	// A refusal that echoes a long client string still decodes typed.
	long, _ := json.Marshal(api.WorkerHello{Proto: strings.Repeat("<x>", 2000), Name: "fw3", Capacity: 1})
	f.Add(uint8(slices.Index(brokerPostRoutes, HelloPath)), long)

	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		path := brokerPostRoutes[int(route)%len(brokerPostRoutes)]
		fb := newFuzzBroker(t)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		defer cancel()
		rec := httptest.NewRecorder()
		fb.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx))
		if rec.Code == http.StatusOK {
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("POST %s %q: 200 with invalid JSON %q", path, body, rec.Body.Bytes())
			}
			return
		}
		err := DecodeError(rec.Result())
		if _, ok := api.AsError(err); !ok {
			t.Fatalf("POST %s %q: status %d decodes to untyped %v", path, body, rec.Code, err)
		}
	})
}
