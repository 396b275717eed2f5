package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
)

// replyTransport is an in-memory http.RoundTripper standing in for a
// broker: /v1/status and /v2/hello answer valid broker replies, the
// batch-submit, job-status and poll routes answer one fixed status code
// and body, and every other route answers 200 "{}". No socket is opened.
// Like a network transport, it fails a request whose context is done.
type replyTransport struct {
	status, hello []byte
	code          int
	body          []byte
}

func (rt *replyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if err := req.Context().Err(); err != nil {
		return nil, err
	}
	if req.Body != nil {
		io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	code, body := http.StatusOK, []byte("{}")
	switch req.URL.Path {
	case StatusPath:
		body = rt.status
	case HelloPath:
		body = rt.hello
	case SubmitBatchPath, JobStatusPath, PollPath:
		code, body = rt.code, rt.body
	}
	return &http.Response{
		StatusCode:    code,
		Header:        http.Header{"Content-Type": {"application/json"}},
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}, nil
}

// echoExecutor answers every task with an empty result that echoes it.
type echoExecutor struct{}

func (echoExecutor) Execute(_ context.Context, spec api.TaskSpec) (api.TaskResult, error) {
	return api.TaskResult{Proto: api.Version, Job: spec.Job, Shard: spec.Shard, Key: spec.Key}, nil
}

// FuzzQueueReply feeds one status code and body to the queue clients as
// the broker's answer to batch submit, job status and poll: a
// QueueExecutor runs one task and a PullWorker works leases, both under
// a 20 ms context. Neither panics, and Execute returns either an error
// or a result that passes Validate for the task it was given. A body
// can answer all three routes at once, because each reply type ignores
// the others' fields.
func FuzzQueueReply(f *testing.F) {
	spec := api.TaskSpec{Proto: api.Version, Job: "fz", Shard: 0, Seed: 7, Key: "fz@hash"}
	status, err := json.Marshal(api.WorkerStatus{Proto: api.Version, Name: "qb-fuzz", Role: "broker"})
	if err != nil {
		f.Fatal(err)
	}
	hello, err := json.Marshal(api.HelloReply{Proto: api.Version, WorkerID: "w1", LeaseTTLNS: int64(3 * time.Millisecond)})
	if err != nil {
		f.Fatal(err)
	}
	result := api.TaskResult{Proto: api.Version, Job: spec.Job, Shard: spec.Shard, Key: spec.Key, Text: "r", DurationNS: 1}
	for _, seed := range []struct {
		code int
		body any
	}{
		{http.StatusOK, map[string]any{ // every route's success at once
			"proto": api.Version, "jobs": []api.SubmitItem{{ID: "j1"}},
			"id": "j1", "state": api.JobDone, "total": 1, "done": 1, "results": []api.TaskResult{result},
			"leases": []api.Lease{{ID: "l1", Task: spec}},
		}},
		{http.StatusOK, map[string]any{"proto": api.Version, "jobs": []api.SubmitItem{{ID: "j1"}}, "state": api.JobQueued}},
		{http.StatusOK, map[string]any{"proto": api.Version, "jobs": []api.SubmitItem{{ID: "j1"}}, "state": api.JobDone,
			"results": []api.TaskResult{{Proto: api.Version, Job: spec.Job, Key: "other@hash"}}}},
		{http.StatusOK, api.SubmitBatchReply{Proto: api.Version, Jobs: []api.SubmitItem{{Err: api.Errf(api.CodeRateLimited, "slow down")}}}},
		{http.StatusTooManyRequests, api.Error{Code: api.CodeRateLimited, Msg: "slow down", Retryable: true, RetryAfterNS: int64(time.Hour)}},
		{http.StatusNotFound, api.Error{Code: api.CodeNotFound, Msg: "unknown"}},
		{http.StatusMisdirectedRequest, api.Error{Code: api.CodeNotLeader, Msg: "standby", Retryable: true, Primary: "http://10.0.0.9:9741"}},
		{http.StatusServiceUnavailable, api.Error{Code: api.CodeDraining, Msg: "draining", Retryable: true}},
		{http.StatusOK, "not an object"},
	} {
		body, err := json.Marshal(seed.body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint16(seed.code), body)
	}
	f.Add(uint16(http.StatusOK), []byte("{"))

	f.Fuzz(func(t *testing.T, code uint16, body []byte) {
		rt := &replyTransport{status: status, hello: hello, code: int(code), body: body}
		if rt.code < 200 || rt.code > 599 {
			rt.code = 200 + rt.code%400
		}
		client := &http.Client{Transport: rt}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()

		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := NewPullWorker("qb-fuzz:9741", nil, WorkerOptions{Name: "fw", Capacity: 2, Client: client, Executor: echoExecutor{}})
			w.Run(ctx)
		}()
		defer wg.Wait()

		e, err := DialQueue(ctx, "qb-fuzz:9741", QueueOptions{Client: client, BatchLinger: -1})
		if err != nil {
			t.Fatalf("dial a broker whose status is valid: %v", err)
		}
		res, err := e.Execute(ctx, spec)
		if err == nil {
			if verr := res.Validate(spec); verr != nil {
				t.Fatalf("code %d body %q: Execute returned a result that fails Validate: %v", rt.code, body, verr)
			}
		}
	})
}
