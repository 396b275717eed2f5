package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/engine"
	"repro/internal/queue"
)

// haPair is a journaled primary/standby broker pair with the standby's
// replication loop live over real HTTP.
type haPair struct {
	primary  *queue.Broker
	standby  *queue.Broker
	tsP, tsS *httptest.Server
	fol      *Follower
}

// startHAPair boots the pair: the standby follows the primary via
// /v2/replicate exactly as `dramlockerd -broker -follow` would, given
// the primary's URL plus followSuffix, with automatic takeover disabled
// (tests promote explicitly).
func startHAPair(t *testing.T, followSuffix string) *haPair {
	t.Helper()
	openJournal := func() *queue.Journal {
		jl, err := queue.OpenJournal(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { jl.Close() })
		return jl
	}
	p := queue.New(queue.Config{Journal: openJournal()})
	tsP := httptest.NewServer(NewBrokerServer(p, "qb-primary"))
	t.Cleanup(tsP.Close)

	s := queue.New(queue.Config{Journal: openJournal(), Follower: true, PrimaryAddr: tsP.URL})
	bsS := NewBrokerServer(s, "qb-standby")
	tsS := httptest.NewServer(bsS)
	t.Cleanup(tsS.Close)

	fol := NewFollower(s, tsP.URL+followSuffix, FollowerOptions{Name: "qb-standby", Advertise: tsS.URL,
		Logf: func(string, ...any) {}})
	bsS.SetPromote(fol.Promote)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); fol.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	return &haPair{primary: p, standby: s, tsP: tsP, tsS: tsS, fol: fol}
}

// TestFailoverAfterPromotion is the in-process takeover arc: a
// scheduler and a worker are given the full broker list, the primary
// dies mid-run with a replicated backlog, the standby is promoted, and
// both sides fail over on their own — the final report is byte-exact
// with the local run.
func TestFailoverAfterPromotion(t *testing.T) {
	ha := startHAPair(t, "")
	local, err := engine.Run(testRegistry(t), engine.Options{Workers: 1, BaseSeed: 5})
	if err != nil {
		t.Fatal(err)
	}

	list := ha.tsP.URL + "," + ha.tsS.URL
	qe := dialQueue(t, list, QueueOptions{})
	repCh := make(chan *engine.Report, 1)
	errCh := make(chan error, 1)
	go func() {
		rep, err := engine.Run(testRegistry(t), engine.Options{Workers: 4, BaseSeed: 5, Executor: qe})
		if err != nil {
			errCh <- err
			return
		}
		repCh <- rep
	}()

	// No worker is serving yet, so the backlog pools on the primary.
	// Wait for replication to carry some of it to the standby, then
	// kill the primary and promote.
	deadline := time.Now().Add(5 * time.Second)
	for ha.standby.Metrics().Submitted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("standby never replicated the backlog")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// SIGKILL-shaped death: in-flight long-polls are severed, not
	// drained.
	ha.tsP.CloseClientConnections()
	ha.tsP.Close()
	if _, err := ha.fol.Promote("primary lost (test)"); err != nil {
		t.Fatalf("promote: %v", err)
	}

	// The worker arrives only now, with the dead primary first in its
	// list: registration and polling must find the new primary alone.
	startPullWorker(t, list, testRegistry(t), "pw1", 4)

	select {
	case rep := <-repCh:
		if reportText(rep) != reportText(local) {
			t.Fatalf("post-takeover report diverged:\n%s\nvs local\n%s", reportText(rep), reportText(local))
		}
	case err := <-errCh:
		t.Fatalf("scheduler failed across takeover: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("scheduler never finished after takeover")
	}
	if ha.standby.Role() != queue.RolePrimary {
		t.Fatalf("standby role = %s, want primary", ha.standby.Role())
	}
}

// TestFollowerReplicatesFromSlashTerminatedAddress: a standby whose
// -follow address ends in "/" still replicates. Unnormalized, that
// address put the replicate route at "//v2/replicate", which ServeMux
// redirects; the client re-sent the redirect as a GET the route
// refuses, so every poll failed and -takeover-after would promote the
// standby beside a live primary.
func TestFollowerReplicatesFromSlashTerminatedAddress(t *testing.T) {
	ha := startHAPair(t, "/")
	id := submitJob(t, ha.primary, api.TaskSpec{Proto: api.Version, Job: "j", Shard: 0, Seed: 7, Key: "j@hash"})
	deadline := time.Now().Add(3 * time.Second)
	for {
		if _, err := ha.standby.Status(id); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby following %s/ never replicated job %s", ha.tsP.URL, id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStandbyRejectsMutationsOverHTTP pins the wire shape clients
// depend on for failover: a standby answers mutations with 503, a
// Retry-After floor, and a typed not_leader error naming the primary.
func TestStandbyRejectsMutationsOverHTTP(t *testing.T) {
	ha := startHAPair(t, "")
	var rep api.SubmitBatchReply
	err := PostJSON(context.Background(), http.DefaultClient, ha.tsS.URL+SubmitBatchPath,
		api.JobSubmitBatch{Proto: api.Version, Jobs: []api.JobSubmit{{Proto: api.Version, Tasks: []api.TaskSpec{
			{Proto: api.Version, Job: "j", Shard: 0, Seed: 7, Key: "j@hash"},
		}}}}, &rep)
	ae, ok := api.AsError(err)
	if !ok || ae.Code != api.CodeNotLeader {
		t.Fatalf("standby submit error = %v, want %s", err, api.CodeNotLeader)
	}
	if !ae.Retryable || ae.Primary != ha.tsP.URL || ae.RetryAfterNS <= 0 {
		t.Fatalf("not_leader reply lacks redirect/backoff hints: %+v", ae)
	}

	// The HTTP layer mirrors the typed hint as a Retry-After header,
	// same as rate_limited — one floor-handling path client-side.
	body, _ := json.Marshal(api.JobSubmitBatch{Proto: api.Version, Jobs: []api.JobSubmit{{Proto: api.Version, Tasks: []api.TaskSpec{
		{Proto: api.Version, Job: "j2", Shard: 0, Seed: 7, Key: "j2@hash"},
	}}}})
	resp, err := http.Post(ha.tsS.URL+SubmitBatchPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("standby submit status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 from standby carries no Retry-After header")
	}
}

// TestPromoteFenceRequireHAToken: a broker started with -ha-token
// refuses promote and fence requests whose token is missing or wrong —
// a durable role flip must not be triggerable by anything that merely
// reaches the port — and accepts matching ones.
func TestPromoteFenceRequireHAToken(t *testing.T) {
	jl, err := queue.OpenJournal(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jl.Close() })
	s := queue.New(queue.Config{Journal: jl, Follower: true, PrimaryAddr: "primary:7001"})
	bs := NewBrokerServer(s, "qb-standby")
	bs.SetHAToken("sesame")
	fol := NewFollower(s, "primary:7001", FollowerOptions{
		Name: "qb-standby", Token: "sesame", Logf: func(string, ...any) {}})
	bs.SetPromote(fol.Promote)
	ts := httptest.NewServer(bs)
	t.Cleanup(ts.Close)
	ctx := context.Background()

	var prep api.PromoteReply
	for _, token := range []string{"", "wrong"} {
		err := PostJSON(ctx, http.DefaultClient, ts.URL+PromotePath,
			api.PromoteRequest{Proto: api.Version, Token: token}, &prep)
		if ae, ok := api.AsError(err); !ok || ae.Code != api.CodeBadRequest {
			t.Fatalf("promote with token %q = %v, want %s", token, err, api.CodeBadRequest)
		}
	}
	if s.Role() != queue.RoleFollower {
		t.Fatalf("role after refused promotes = %s, want follower", s.Role())
	}
	var frep api.FenceReply
	err = PostJSON(ctx, http.DefaultClient, ts.URL+FencePath,
		api.FenceRequest{Proto: api.Version, Epoch: 5, Primary: "np:1"}, &frep)
	if ae, ok := api.AsError(err); !ok || ae.Code != api.CodeBadRequest {
		t.Fatalf("tokenless fence = %v, want %s", err, api.CodeBadRequest)
	}
	if s.Epoch() != 1 {
		t.Fatalf("epoch after refused fence = %d, want untouched 1", s.Epoch())
	}

	// The matching token opens both verbs: the configured follower
	// adopts the fence epoch (and keeps following), and a promote flips
	// it to primary past that epoch.
	err = PostJSON(ctx, http.DefaultClient, ts.URL+FencePath,
		api.FenceRequest{Proto: api.Version, Epoch: 2, Primary: "np:1", Token: "sesame"}, &frep)
	if err != nil {
		t.Fatalf("tokened fence: %v", err)
	}
	if frep.Epoch != 2 || s.Role() != queue.RoleFollower {
		t.Fatalf("after tokened fence: epoch %d role %s, want 2/follower", frep.Epoch, s.Role())
	}
	err = PostJSON(ctx, http.DefaultClient, ts.URL+PromotePath,
		api.PromoteRequest{Proto: api.Version, Token: "sesame"}, &prep)
	if err != nil {
		t.Fatalf("tokened promote: %v", err)
	}
	if prep.Epoch != 3 || prep.Role != "primary" {
		t.Fatalf("tokened promote reply = %+v, want epoch 3 primary", prep)
	}
}
