package queue

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/api"
)

// BenchmarkBrokerSubmitDone measures one full broker round-trip —
// submit, lease, done — the unit the fleet's throughput is built from.
// Pinned in BENCH_<sha>.json so hardening (journal rotation, rate
// limiting, fault hooks on the append path) can't silently tax it.
// The injected clock advances past the (shortened) retention each
// iteration so finished jobs are swept as they would be in steady
// state — otherwise the lazy sweep walks an ever-growing job map and
// the benchmark measures b.N, not the broker.
func BenchmarkBrokerSubmitDone(b *testing.B) {
	clk := newClock()
	br := New(Config{JobRetention: time.Millisecond, Now: clk.now})
	rep, err := br.Hello(api.WorkerHello{Proto: api.Version, Name: "bench", Capacity: 1})
	if err != nil {
		b.Fatal(err)
	}
	w := rep.WorkerID
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job := fmt.Sprintf("bench-%d", i)
		_, err := submitOne(br, api.JobSubmit{Proto: api.Version, Tasks: []api.TaskSpec{
			{Proto: api.Version, Job: job, Shard: 0, Seed: 7, Key: job + "@hash"},
		}})
		if err != nil {
			b.Fatal(err)
		}
		poll, err := br.Poll(ctx, api.PollRequest{Proto: api.Version, WorkerID: w, Max: 1})
		if err != nil || len(poll.Leases) != 1 {
			b.Fatalf("poll: %v (%d leases)", err, len(poll.Leases))
		}
		l := poll.Leases[0]
		_, err = br.Done(api.TaskDone{
			Proto: api.Version, WorkerID: w, LeaseID: l.ID,
			Result: api.TaskResult{
				Proto: api.Version, Job: l.Task.Job, Shard: l.Task.Shard,
				Key: l.Task.Key, Text: "r", DurationNS: 1,
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		clk.advance(2 * time.Millisecond)
	}
}

// BenchmarkJournalReplicateAppend measures the HA hot path per
// replicated round-trip: a journaled submit/lease/done on the primary,
// the batch served through ReadStream, and the follower folding it in
// via ApplyReplicated — raw journal append, cursor record and fsync
// included. Pinned in BENCH_<sha>.json so the replication layer's cost
// per record stays visible to scripts/bench_diff.sh.
func BenchmarkJournalReplicateAppend(b *testing.B) {
	clk := newClock()
	pj, err := OpenJournal(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer pj.Close()
	p := New(Config{Journal: pj, JobRetention: time.Millisecond, Now: clk.now})
	fj, err := OpenJournal(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer fj.Close()
	f := New(Config{Journal: fj, Follower: true, PrimaryAddr: "primary:7001",
		JobRetention: time.Millisecond, Now: clk.now})
	rep, err := p.Hello(api.WorkerHello{Proto: api.Version, Name: "bench", Capacity: 1})
	if err != nil {
		b.Fatal(err)
	}
	w := rep.WorkerID
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job := fmt.Sprintf("bench-%d", i)
		if _, err := submitOne(p, api.JobSubmit{Proto: api.Version, Tasks: []api.TaskSpec{
			{Proto: api.Version, Job: job, Shard: 0, Seed: 7, Key: job + "@hash"},
		}}); err != nil {
			b.Fatal(err)
		}
		poll, err := p.Poll(ctx, api.PollRequest{Proto: api.Version, WorkerID: w, Max: 1})
		if err != nil || len(poll.Leases) != 1 {
			b.Fatalf("poll: %v (%d leases)", err, len(poll.Leases))
		}
		l := poll.Leases[0]
		if _, err := p.Done(api.TaskDone{
			Proto: api.Version, WorkerID: w, LeaseID: l.ID,
			Result: api.TaskResult{
				Proto: api.Version, Job: l.Task.Job, Shard: l.Task.Shard,
				Key: l.Task.Key, Text: "r", DurationNS: 1,
			},
		}); err != nil {
			b.Fatal(err)
		}
		gen, seg, off := f.ReplCursor()
		ck := pj.ReadStream(gen, seg, off, 0)
		if len(ck.Data) == 0 && !ck.Restart {
			b.Fatal("nothing to replicate")
		}
		if err := f.ApplyReplicated(ck); err != nil {
			b.Fatal(err)
		}
		clk.advance(2 * time.Millisecond)
	}
}
