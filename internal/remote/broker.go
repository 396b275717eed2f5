package remote

import (
	"crypto/subtle"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/queue"
)

// Queue (broker) HTTP routes. The submit side is a scheduler's API, the
// worker side is the pull-dispatch lease API; both speak typed api
// messages with api.Error bodies on failure.
const (
	SubmitBatchPath = "/v2/submitbatch" // POST api.JobSubmitBatch -> api.SubmitBatchReply
	JobStatusPath   = "/v2/job"         // GET ?id=...[&wait=seconds] -> api.JobStatus
	CancelPath      = "/v2/cancel"      // POST api.CancelRequest -> {}
	HelloPath       = "/v2/hello"       // POST api.WorkerHello -> api.HelloReply
	DrainPath       = "/v2/drain"       // POST api.DrainRequest -> {}
	PollPath        = "/v2/poll"        // POST api.PollRequest -> api.PollReply (long poll)
	RenewPath       = "/v2/renew"       // POST api.LeaseRenew -> api.RenewReply
	DonePath        = "/v2/done"        // POST api.TaskDone -> api.DoneReply
	MetricsPath     = "/v2/metrics"     // GET [?format=prometheus] -> api.BrokerMetrics
	FleetPath       = "/v2/fleet"       // GET -> api.FleetStatus
	ReplicatePath   = "/v2/replicate"   // POST api.ReplicateRequest -> api.ReplicateReply (long poll)
	PromotePath     = "/v2/promote"     // POST api.PromoteRequest -> api.PromoteReply
	FencePath       = "/v2/fence"       // POST api.FenceRequest -> api.FenceReply
)

// maxStatusWait bounds the job-status long poll so a stuck client
// cannot park a handler forever; clients simply re-issue the wait.
const maxStatusWait = 30 * time.Second

// maxReplicateWait bounds the replication long poll the same way.
const maxReplicateWait = 30 * time.Second

// drainingRetryAfter is the backoff floor stamped on draining refusals:
// clients with another broker to try fail over instead of hammering a
// broker that is on its way out.
const drainingRetryAfter = time.Second

// BrokerServer fronts an internal/queue.Broker over HTTP: schedulers
// submit jobs and wait on them, workers register and pull leases. The
// broker holds no registry and executes nothing — cache-key safety is
// enforced by the workers (each refuses tasks its own registry cannot
// reproduce) and re-checked by the submitting scheduler on the result
// echo, so a broker cannot poison anyone's cache even in principle.
//
// GET /v1/status answers like a worker daemon (role "broker"), so
// operators can probe protocol compatibility and drain state of any
// dlexec2 daemon the same way.
type BrokerServer struct {
	name     string
	b        *queue.Broker
	draining atomic.Bool
	mux      *http.ServeMux
	// planeMetrics, when set, merges a co-hosted result plane's counters
	// into /v2/metrics so one scrape covers the whole daemon.
	planeMetrics func() api.PlaneMetrics
	// promote, when set, handles /v2/promote instead of calling the
	// broker directly — the daemon wires the Follower's Promote here so
	// an HTTP promotion also stops the follow loop and starts fencing.
	promote func(reason string) (api.PromoteReply, error)
	// haToken, when set, gates /v2/promote and /v2/fence: both are
	// durable cluster-wide role flips, so a bare network path to the
	// port must not be enough to trigger them.
	haToken string
}

// NewBrokerServer wraps b in the HTTP service, named name in statuses.
func NewBrokerServer(b *queue.Broker, name string) *BrokerServer {
	s := &BrokerServer{name: name, b: b, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST "+SubmitBatchPath, s.handleSubmitBatch)
	s.mux.HandleFunc("GET "+JobStatusPath, s.handleJobStatus)
	s.mux.HandleFunc("POST "+CancelPath, s.handleCancel)
	s.mux.HandleFunc("POST "+HelloPath, s.handleHello)
	s.mux.HandleFunc("POST "+DrainPath, s.handleDrain)
	s.mux.HandleFunc("POST "+PollPath, s.handlePoll)
	s.mux.HandleFunc("POST "+RenewPath, s.handleRenew)
	s.mux.HandleFunc("POST "+DonePath, s.handleDone)
	s.mux.HandleFunc("GET "+StatusPath, s.handleStatus)
	s.mux.HandleFunc("GET "+MetricsPath, s.handleMetrics)
	s.mux.HandleFunc("GET "+FleetPath, s.handleFleet)
	s.mux.HandleFunc("POST "+ReplicatePath, s.handleReplicate)
	s.mux.HandleFunc("POST "+PromotePath, s.handlePromote)
	s.mux.HandleFunc("POST "+FencePath, s.handleFence)
	return s
}

// SetPromote installs the promotion hook (call before serving); without
// one, /v2/promote calls the broker directly.
func (s *BrokerServer) SetPromote(f func(reason string) (api.PromoteReply, error)) { s.promote = f }

// SetPlaneMetrics registers a co-hosted result plane's metrics source
// (call before serving).
func (s *BrokerServer) SetPlaneMetrics(f func() api.PlaneMetrics) { s.planeMetrics = f }

// SetHAToken requires the shared secret on promote and fence requests
// (call before serving). Empty disables the check — acceptable only
// when the broker port is reachable by broker peers alone.
func (s *BrokerServer) SetHAToken(token string) { s.haToken = token }

// checkHAToken vets a promote/fence request's shared secret, answering
// a mismatch with a typed non-retryable error. Constant-time compare so
// the token cannot be guessed byte by byte.
func (s *BrokerServer) checkHAToken(w http.ResponseWriter, token string) bool {
	if s.haToken == "" {
		return true
	}
	if subtle.ConstantTimeCompare([]byte(s.haToken), []byte(token)) != 1 {
		WriteError(w, api.Errf(api.CodeBadRequest,
			"broker %s requires a matching -ha-token for promote/fence", s.name))
		return false
	}
	return true
}

// ServeHTTP implements http.Handler.
func (s *BrokerServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Broker exposes the wrapped queue (metrics, direct driving in tests).
func (s *BrokerServer) Broker() *queue.Broker { return s.b }

// Drain refuses new submissions and registrations; queued and leased
// work keeps flowing so the backlog empties.
func (s *BrokerServer) Drain() { s.draining.Store(true) }

// drainingErr builds the draining refusal with its Retry-After floor.
func (s *BrokerServer) drainingErr() *api.Error {
	ae := api.Errf(api.CodeDraining, "broker %s is draining", s.name)
	ae.RetryAfterNS = int64(drainingRetryAfter)
	return ae
}

func (s *BrokerServer) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		WriteError(w, s.drainingErr())
		return
	}
	var bt api.JobSubmitBatch
	if !DecodeInto(w, r, &bt) {
		return
	}
	rep, err := s.b.SubmitBatch(bt)
	if err != nil {
		WriteError(w, err)
		return
	}
	Reply(w, rep)
}

func (s *BrokerServer) handleFleet(w http.ResponseWriter, r *http.Request) {
	Reply(w, s.b.Fleet())
}

func (s *BrokerServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.b.Metrics()
	if s.planeMetrics != nil {
		pm := s.planeMetrics()
		m.Plane = &pm
	}
	ServeMetrics(w, r, m)
}

func (s *BrokerServer) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	wait := time.Duration(0)
	if v := r.URL.Query().Get("wait"); v != "" {
		d, err := time.ParseDuration(v + "s")
		if err != nil {
			WriteError(w, api.Errf(api.CodeBadRequest, "bad wait %q: %v", v, err))
			return
		}
		wait = min(d, maxStatusWait)
	}
	st, err := s.b.WaitStatus(r.Context(), id, wait)
	if err != nil {
		WriteError(w, err)
		return
	}
	Reply(w, st)
}

func (s *BrokerServer) handleCancel(w http.ResponseWriter, r *http.Request) {
	var req api.CancelRequest
	if !DecodeInto(w, r, &req) {
		return
	}
	if err := s.b.Cancel(req); err != nil {
		WriteError(w, err)
		return
	}
	Reply(w, struct{}{})
}

func (s *BrokerServer) handleHello(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		WriteError(w, s.drainingErr())
		return
	}
	var h api.WorkerHello
	if !DecodeInto(w, r, &h) {
		return
	}
	rep, err := s.b.Hello(h)
	if err != nil {
		WriteError(w, err)
		return
	}
	Reply(w, rep)
}

func (s *BrokerServer) handleDrain(w http.ResponseWriter, r *http.Request) {
	var d api.DrainRequest
	if !DecodeInto(w, r, &d) {
		return
	}
	if err := s.b.Drain(d); err != nil {
		WriteError(w, err)
		return
	}
	Reply(w, struct{}{})
}

func (s *BrokerServer) handlePoll(w http.ResponseWriter, r *http.Request) {
	var req api.PollRequest
	if !DecodeInto(w, r, &req) {
		return
	}
	rep, err := s.b.Poll(r.Context(), req)
	if err != nil {
		WriteError(w, err)
		return
	}
	Reply(w, rep)
}

func (s *BrokerServer) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req api.LeaseRenew
	if !DecodeInto(w, r, &req) {
		return
	}
	rep, err := s.b.Renew(req)
	if err != nil {
		WriteError(w, err)
		return
	}
	Reply(w, rep)
}

func (s *BrokerServer) handleDone(w http.ResponseWriter, r *http.Request) {
	var req api.TaskDone
	if !DecodeInto(w, r, &req) {
		return
	}
	rep, err := s.b.Done(req)
	if err != nil {
		WriteError(w, err)
		return
	}
	Reply(w, rep)
}

func (s *BrokerServer) handleStatus(w http.ResponseWriter, r *http.Request) {
	m := s.b.Metrics()
	// Role "broker" (a mutation-accepting primary) is the historical
	// value clients key off; a follower shows as "standby" and a fenced
	// ex-primary as "fenced", so DialQueue can prefer the leader.
	role := "broker"
	switch s.b.Role() {
	case queue.RoleFollower:
		role = "standby"
	case queue.RoleFenced:
		role = "fenced"
	}
	Reply(w, api.WorkerStatus{
		Proto:    api.Version,
		Name:     s.name,
		Role:     role,
		Draining: s.draining.Load(),
		Capacity: m.Workers,
		Inflight: m.Leased,
		Jobs:     m.Jobs,
	})
}

func (s *BrokerServer) handleReplicate(w http.ResponseWriter, r *http.Request) {
	var req api.ReplicateRequest
	if !DecodeInto(w, r, &req) {
		return
	}
	if err := api.CheckProto(req.Proto); err != nil {
		WriteError(w, err)
		return
	}
	jl := s.b.Journal()
	if jl == nil {
		WriteError(w, api.Errf(api.CodeUnavailable,
			"broker %s has no journal; nothing to replicate", s.name))
		return
	}
	wait := min(time.Duration(req.WaitNS), maxReplicateWait)
	ck := jl.WaitStream(r.Context(), req.Generation, req.Segment, req.Offset, req.MaxBytes, wait)
	role := "primary"
	switch s.b.Role() {
	case queue.RoleFollower:
		role = "follower"
	case queue.RoleFenced:
		role = "fenced"
	}
	Reply(w, api.ReplicateReply{
		Proto: api.Version, Data: ck.Data,
		Generation: ck.Gen, Segment: ck.Seg, Offset: ck.Off,
		Restart:        ck.Restart,
		PrimarySegment: ck.PrimarySeg, PrimaryOffset: ck.PrimaryOff,
		Epoch: s.b.Epoch(), Role: role,
	})
}

func (s *BrokerServer) handlePromote(w http.ResponseWriter, r *http.Request) {
	var req api.PromoteRequest
	if !DecodeInto(w, r, &req) {
		return
	}
	if err := api.CheckProto(req.Proto); err != nil {
		WriteError(w, err)
		return
	}
	if !s.checkHAToken(w, req.Token) {
		return
	}
	if s.promote != nil {
		rep, err := s.promote("operator request (/v2/promote)")
		if err != nil {
			WriteError(w, err)
			return
		}
		Reply(w, rep)
		return
	}
	epoch, requeued, err := s.b.Promote()
	if err != nil {
		WriteError(w, err)
		return
	}
	Reply(w, api.PromoteReply{
		Proto: api.Version, Epoch: epoch, Requeued: requeued, Role: "primary",
	})
}

func (s *BrokerServer) handleFence(w http.ResponseWriter, r *http.Request) {
	var req api.FenceRequest
	if !DecodeInto(w, r, &req) {
		return
	}
	if err := api.CheckProto(req.Proto); err != nil {
		WriteError(w, err)
		return
	}
	if !s.checkHAToken(w, req.Token) {
		return
	}
	if err := s.b.Fence(req.Epoch, req.Primary); err != nil {
		WriteError(w, err)
		return
	}
	role := "fenced"
	if s.b.Role() == queue.RoleFollower {
		role = "follower"
	}
	Reply(w, api.FenceReply{Proto: api.Version, Epoch: s.b.Epoch(), Role: role})
}
