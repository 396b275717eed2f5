package remote

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/engine"
	"repro/internal/queue"
)

// TestFleetEndpointShowsProgress checks GET /v2/fleet end to end: a
// renewal carrying progress surfaces in the decoded FleetStatus.
func TestFleetEndpointShowsProgress(t *testing.T) {
	bs, ts := startBroker(t, queue.Config{})
	spec := api.TaskSpec{Proto: api.Version, Job: "train", Shard: 0, Key: "train@hash"}
	submitJob(t, bs.Broker(), spec)
	w := newRawWorker(t, ts.URL, "rw")
	l := w.grabLease()
	var rep api.RenewReply
	w.post(RenewPath, api.LeaseRenew{
		Proto: api.Version, WorkerID: w.id, LeaseIDs: []string{l.ID},
		Progress: map[string]*api.TaskProgress{l.ID: {Job: "train", Shard: 0, Stage: "search", Done: 5, Total: 9}},
	}, &rep)

	resp, err := http.Get(ts.URL + FleetPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fs api.FleetStatus
	if err := json.NewDecoder(resp.Body).Decode(&fs); err != nil {
		t.Fatal(err)
	}
	if fs.Proto != api.Version || len(fs.Workers) != 1 {
		t.Fatalf("fleet %+v", fs)
	}
	fw := fs.Workers[0]
	if fw.Name != "rw" || len(fw.Leases) != 1 {
		t.Fatalf("fleet worker %+v", fw)
	}
	fl := fw.Leases[0]
	if fl.Job != "train" || fl.Progress == nil || fl.Progress.Done != 5 || fl.Progress.Stage != "search" {
		t.Fatalf("fleet lease %+v", fl)
	}
}

// TestPullWorkerPiggybacksProgressOnRenew is the live integration: a
// pull worker's executor relays the job's heartbeat, the renewal loop
// piggybacks it, and the broker's fleet view shows it — all while the
// task is still running.
func TestPullWorkerPiggybacksProgressOnRenew(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	t.Cleanup(func() { once.Do(func() { close(release) }) })

	reg := engine.NewRegistry()
	err := reg.Register(single(engine.Job{Name: "slow", Key: "slow@hash"}, func(ctx context.Context) (engine.Output, error) {
		if report := engine.ProgressFromContext(ctx); report != nil {
			report("train", 4, 8)
		}
		<-release
		return engine.Output{Text: "slow done"}, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	// Short TTL so the renew loop (TTL/3) fires quickly.
	bs, ts := startBroker(t, queue.Config{LeaseTTL: 300 * time.Millisecond})
	startPullWorker(t, ts.URL, reg, "pw", 1)
	spec := api.TaskSpec{Proto: api.Version, Job: "slow", Shard: 0, Key: "slow@hash", Seed: 1}
	id := submitJob(t, bs.Broker(), spec)

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		fs := bs.Broker().Fleet()
		if len(fs.Workers) == 1 && len(fs.Workers[0].Leases) == 1 {
			if p := fs.Workers[0].Leases[0].Progress; p != nil {
				if p.Job != "slow" || p.Stage != "train" || p.Done != 4 || p.Total != 8 {
					t.Fatalf("fleet progress %+v", p)
				}
				once.Do(func() { close(release) })
				waitJobDone(t, bs.Broker(), id)
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("fleet view never showed the worker's heartbeat")
}

// waitJobDone polls the broker until the job finishes.
func waitJobDone(t *testing.T, b *queue.Broker, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := b.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == api.JobDone {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("job never finished after release")
}
