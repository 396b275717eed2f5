// Package remote moves the engine's Executor seam across process
// boundaries, speaking protocol dlexec2 (internal/api) over HTTP in two
// topologies:
//
//   - Push: a Server exposes a local registry + executor
//     (POST /v1/execute), and a RemoteExecutor client dispatches the
//     scheduler's tasks to a static list of such workers, least-loaded
//     first.
//   - Queue: a BrokerServer fronts an internal/queue broker
//     (submit/poll/cancel plus the worker lease API), PullWorker
//     attaches a registry to a broker and pulls leases, and
//     QueueExecutor submits the scheduler's tasks through the broker.
//     A Follower keeps a standby broker replicating a primary.
//
// Clients and servers share one HTTP core (core.go, httperr.go), and so
// does the result plane in internal/resultplane. On the client side,
// NormalizeAddr turns a "host:port" or URL flag into a base URL, a
// failover list carries the broker list and the current target for
// QueueExecutor and PullWorker, PostJSON and GetJSON are the only
// request paths, and one GET /v1/status probe vets a daemon before Dial
// or DialQueue use it. On the server side, DecodeInto reads every JSON
// request, Reply writes every JSON answer, WriteError every typed
// failure and ServeMetrics every /v2/metrics scrape. Request and reply
// bodies are bounded at MaxBodyBytes either way.
//
// The wire contract is internal/api: a task ships as (job name, shard
// index, seed, cache-key stem) — never code — and the executing worker
// re-resolves the closures from its own registry, refusing tasks whose
// cache key it cannot reproduce. Because the scheduler keeps ordering,
// merging, seeding and caching local (see internal/engine), a report
// produced over either transport is byte-identical to a local run.
//
// Failures travel as typed api.Error JSON bodies (WriteError on the
// server, DecodeError on the client): a stable code plus a Retryable
// flag. Clients never guess from HTTP status codes — a non-retryable
// error fails the task immediately, a retryable one excludes the
// failing worker and tries the rest of the fleet.
//
// Push endpoints (all JSON):
//
//	POST /v1/execute  api.TaskSpec -> api.TaskResult
//	GET  /v1/status   -> api.WorkerStatus (proto, role, drain state)
//
// Live progress travels on the queue side only: pull workers piggyback
// heartbeats on lease renewals and the broker serves them at
// /v2/fleet. Queue endpoints are listed on BrokerServer.
package remote

import (
	"net/http"
	"sync/atomic"

	"repro/internal/api"
	"repro/internal/engine"
)

// ExecutePath and StatusPath are the push protocol's HTTP routes.
const (
	ExecutePath = "/v1/execute"
	StatusPath  = "/v1/status"
)

// ProtoVersion re-exports the wire protocol revision (api.Version) so
// daemons and CLIs can log it without importing the api package.
const ProtoVersion = api.Version

// Server serves a registry's jobs to remote schedulers. It bounds
// concurrent executions with a capacity semaphore (excess requests queue
// rather than fail — the client's inflight limit is the intended
// back-pressure) and tracks inflight/completed counts for /v1/status.
type Server struct {
	name      string
	reg       *engine.Registry
	exec      engine.Executor
	capacity  int
	slots     chan struct{}
	inflight  atomic.Int64
	completed atomic.Uint64
	draining  atomic.Bool
	mux       *http.ServeMux
}

// NewServer wraps reg in a worker server named name (shown in statuses
// and result stamps) executing at most capacity tasks at once; capacity
// <= 0 panics — resolve the default (NumCPU) at the call site.
func NewServer(reg *engine.Registry, name string, capacity int) *Server {
	if capacity <= 0 {
		panic("remote: server capacity must be positive")
	}
	s := &Server{
		name:     name,
		reg:      reg,
		exec:     engine.NewNamedLocalExecutor(reg, name),
		capacity: capacity,
		slots:    make(chan struct{}, capacity),
		mux:      http.NewServeMux(),
	}
	s.mux.HandleFunc("POST "+ExecutePath, s.handleExecute)
	s.mux.HandleFunc("GET "+StatusPath, s.handleStatus)
	return s
}

// SetExecutor replaces the server's executor (call before serving).
// The daemon uses it to stack a result-plane cache between the HTTP
// layer and the local pool (engine.CachingExecutor).
func (s *Server) SetExecutor(exec engine.Executor) { s.exec = exec }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Drain flips the server into drain mode: /v1/status advertises it and
// new /v1/execute requests are refused with CodeDraining (retryable —
// the client moves the task to another worker). In-flight executions
// finish normally. The daemon calls this on SIGTERM before shutting the
// listener down, so a fleet rollout never strands a task mid-dispatch.
func (s *Server) Drain() { s.draining.Store(true) }

// handleExecute runs one task. Task-level failures (job error, panic)
// travel inside the TaskResult with status 200; resolution failures —
// unknown job, protocol or cache-key mismatch, draining — are typed
// api.Error bodies so the client knows whether another worker could
// serve the task.
func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		WriteError(w, api.Errf(api.CodeDraining, "worker %s is draining", s.name))
		return
	}
	var spec api.TaskSpec
	if !DecodeInto(w, r, &spec) {
		return
	}
	if err := spec.Validate(); err != nil {
		WriteError(w, err)
		return
	}

	// Acquire a capacity slot; abandon the wait if the client hangs up.
	select {
	case s.slots <- struct{}{}:
	case <-r.Context().Done():
		return
	}
	s.inflight.Add(1)
	defer func() {
		s.inflight.Add(-1)
		s.completed.Add(1)
		<-s.slots
	}()

	// r.Context() cancels the execution when the client disconnects, so
	// an aborted scheduler does not leave orphaned work running.
	res, err := s.exec.Execute(r.Context(), spec)
	if err != nil {
		WriteError(w, err)
		return
	}
	Reply(w, res)
}

// handleStatus reports the worker's identity, registry, load, protocol
// and drain state, so schedulers and operators see compatibility and
// availability before dispatching anything.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	Reply(w, api.WorkerStatus{
		Proto:     api.Version,
		Name:      s.name,
		Role:      "worker",
		Draining:  s.draining.Load(),
		Jobs:      s.reg.Len(),
		JobNames:  s.reg.Names(),
		Capacity:  s.capacity,
		Inflight:  int(s.inflight.Load()),
		Completed: s.completed.Load(),
	})
}
