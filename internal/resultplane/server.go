package resultplane

import (
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/api"
	"repro/internal/remote"
)

// HTTP routes of the result plane, registered method-qualified like
// the broker's, so a wrong method gets the mux's 405. Flat paths with
// the key as a query parameter, so the fault-injection point names
// derived from the last path segment (server.get / server.put /
// server.claim and their client.* mirrors) stay clean. Bodies are
// bounded at remote.MaxBodyBytes, as on every daemon route.
const (
	GetPath   = "/v3/get"   // GET  ?key=K[&wait=seconds]
	PutPath   = "/v3/put"   // POST ?key=K, body = api.CacheEntry JSON
	ClaimPath = "/v3/claim" // POST api.ClaimRequest
)

// maxWait clamps a long-poll GET's park time, mirroring the broker's
// status long-poll window.
const maxWait = 30 * time.Second

// Server serves the plane over HTTP: the /v3 object routes plus the
// standard /v1/status and /v2/metrics introspection endpoints, so a
// standalone plane daemon answers the same operational surface as a
// broker (dramlocker -stats works against either).
type Server struct {
	store *Store
	name  string
}

// NewServer wraps store; name is the daemon's advertised identity.
func NewServer(store *Store, name string) *Server {
	return &Server{store: store, name: name}
}

// Routes registers only the /v3 object routes on mux — the co-hosting
// shape, where a broker already serves /v1/status and /v2/metrics.
func (s *Server) Routes(mux *http.ServeMux) {
	mux.HandleFunc("GET "+GetPath, s.handleGet)
	mux.HandleFunc("POST "+PutPath, s.handlePut)
	mux.HandleFunc("POST "+ClaimPath, s.handleClaim)
}

// Handler returns the standalone plane daemon's full handler: the /v3
// routes plus status and metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.Routes(mux)
	mux.HandleFunc("GET "+remote.StatusPath, s.handleStatus)
	mux.HandleFunc("GET "+remote.MetricsPath, s.handleMetrics)
	return mux
}

// handleGet answers a fetch, optionally long-polling.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		remote.WriteError(w, api.Errf(api.CodeBadRequest, "get needs a key"))
		return
	}
	data, ok := s.store.Get(key)
	if !ok {
		if wait := parseWait(r.URL.Query().Get("wait")); wait > 0 {
			data, ok = s.store.Wait(r.Context(), key, wait)
		}
	}
	if !ok {
		remote.WriteError(w, api.Errf(api.CodeNotFound, "no entry for key %q", key))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// parseWait parses a long-poll window in whole seconds, clamped.
func parseWait(s string) time.Duration {
	if s == "" {
		return 0
	}
	secs, err := strconv.Atoi(s)
	if err != nil || secs <= 0 {
		return 0
	}
	d := time.Duration(secs) * time.Second
	if d > maxWait {
		d = maxWait
	}
	return d
}

// handlePut stores one entry. It reads the raw bytes rather than
// decoding them into an api.CacheEntry; a body that is not JSON is a
// bad request.
func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		remote.WriteError(w, api.Errf(api.CodeBadRequest, "put needs a key"))
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, remote.MaxBodyBytes))
	if err != nil {
		remote.WriteError(w, api.Errf(api.CodeBadRequest, "read entry: %v", err))
		return
	}
	if len(data) == 0 {
		remote.WriteError(w, api.Errf(api.CodeBadRequest, "put needs an entry"))
		return
	}
	conflict, err := s.store.Put(key, data)
	if err != nil {
		remote.WriteError(w, api.Errf(api.CodeBadRequest, "entry is not JSON: %v", err))
		return
	}
	remote.Reply(w, api.PutReply{Proto: api.Version, Conflict: conflict})
}

// handleClaim arbitrates single-flight.
func (s *Server) handleClaim(w http.ResponseWriter, r *http.Request) {
	var req api.ClaimRequest
	if !remote.DecodeInto(w, r, &req) {
		return
	}
	if err := api.CheckProto(req.Proto); err != nil {
		remote.WriteError(w, err)
		return
	}
	if req.Key == "" {
		remote.WriteError(w, api.Errf(api.CodeBadRequest, "claim needs a key"))
		return
	}
	remote.Reply(w, s.store.Claim(req.Key, req.Owner))
}

// handleStatus answers the standard daemon introspection probe.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	remote.Reply(w, api.WorkerStatus{Proto: api.Version, Name: s.name, Role: "result-plane"})
}

// handleMetrics serves the plane's counters in the broker metrics
// schema (Plane populated, queue fields zero), so -stats and scrapers
// treat plane and broker uniformly.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	pm := s.store.Metrics()
	remote.ServeMetrics(w, r, api.BrokerMetrics{Proto: api.Version, Plane: &pm})
}
