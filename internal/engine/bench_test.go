package engine

import (
	"context"
	"fmt"
	"testing"
)

// benchRegistry: 8 sharded jobs x 8 shards of trivial work, keyed for
// caching.
func benchRegistry(b *testing.B) *Registry {
	b.Helper()
	reg := NewRegistry()
	for j := 0; j < 8; j++ {
		var shards []Shard
		for s := 0; s < 8; s++ {
			s := s
			shards = append(shards, Shard{
				Name: fmt.Sprintf("s%d", s),
				Run: func(context.Context) (Output, error) {
					return Output{Data: uint64(8*j + s)}, nil
				},
			})
		}
		err := reg.Register(Job{Name: fmt.Sprintf("job%d", j), Key: fmt.Sprintf("job%d@bench", j), Shards: shards, Merge: func(outs []Output) (Output, error) {
			var sum uint64
			for _, o := range outs {
				var v uint64
				if err := DecodeData(o.Data, &v); err != nil {
					return Output{}, err
				}
				sum += v
			}
			return Output{Text: fmt.Sprint(sum)}, nil
		}})
		if err != nil {
			b.Fatal(err)
		}
	}
	return reg
}

// BenchmarkShardedRunCold times scheduling + merging 64 shard units with
// no cache (pure engine overhead per pass).
func BenchmarkShardedRunCold(b *testing.B) {
	reg := benchRegistry(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Run(reg, Options{Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedRunWarm times a fully warm pass: every job replays from
// the in-memory cache (the steady state of repeated paper-table runs).
func BenchmarkShardedRunWarm(b *testing.B) {
	reg := benchRegistry(b)
	cache := NewCache()
	if _, err := Run(reg, Options{Workers: 4, Cache: cache}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Run(reg, Options{Workers: 4, Cache: cache})
		if err != nil {
			b.Fatal(err)
		}
		if rep.CachedCount() != len(rep.Results) {
			b.Fatalf("warm pass computed %d jobs", len(rep.Results)-rep.CachedCount())
		}
	}
}

// BenchmarkDiskCacheReload times loading a populated cache dir — the
// startup cost a warm process pays before its first replay.
func BenchmarkDiskCacheReload(b *testing.B) {
	dir := b.TempDir()
	cache, err := OpenDiskCache(dir, "bench")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := Run(benchRegistry(b), Options{Workers: 4, Cache: cache}); err != nil {
		b.Fatal(err)
	}
	cache.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := OpenDiskCache(dir, "bench")
		if err != nil {
			b.Fatal(err)
		}
		if c.Len() == 0 {
			b.Fatal("reload found nothing")
		}
		c.Close()
	}
}
