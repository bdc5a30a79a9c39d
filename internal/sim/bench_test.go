package sim

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
)

// benchSweepSpec is a scaled-down multi-observer sweep in the shape of the
// paper's characterization grid: nine observer configurations over every
// (workload, seed) coordinate, so each coordinate's stream feeds nine
// observers and fusing them onto one pass saves what a real mixed sweep
// would.
func benchSweepSpec(insts int64) *Spec {
	return &Spec{
		Workloads: []string{"comd-lite", "xalan-lite"},
		SeedCount: 2,
		Insts:     insts,
		Observers: []ObserverSpec{
			{Kind: "bpred", Options: json.RawMessage(`{"configs":["gshare-big","tournament-big","tage-big"]}`)},
			{Kind: "btb", Options: json.RawMessage(`{"geometries":[{"entries":512,"ways":4},{"entries":1024,"ways":8}]}`)},
			{Kind: "icache", Options: json.RawMessage(`{"geometries":[{"size_kb":16,"line_bytes":64,"ways":4},{"size_kb":32,"line_bytes":64,"ways":8}]}`)},
			{Kind: "branch-mix"},
			{Kind: "bbl"},
		},
	}
}

// BenchmarkFusedVsPerShard times the same 36-shard multi-observer grid two
// ways on two workers: per-shard, every shard its own RunShard call that
// regenerates the coordinate's stream, and fused, one Session.Run that
// generates each coordinate once with all nine observers attached. The
// per-shard/fused ratio is the fusing win, measured in one process.
func BenchmarkFusedVsPerShard(b *testing.B) {
	const insts, workers = 200_000, 2
	spec := benchSweepSpec(insts)
	ctx := context.Background()
	norm, err := spec.normalized(0)
	if err != nil {
		b.Fatal(err)
	}
	cfgs, err := expandObservers(norm.Observers)
	if err != nil {
		b.Fatal(err)
	}
	var shards []ShardSpec
	for _, w := range norm.Workloads {
		for _, cfg := range cfgs {
			for _, seed := range norm.Seeds {
				shards = append(shards, ShardSpec{Workload: w, Seed: seed, Insts: insts, Observer: cfg.Spec()})
			}
		}
	}

	b.Run("per-shard", func(b *testing.B) {
		sess := NewSession(workers)
		for b.Loop() {
			next := make(chan ShardSpec)
			var wg sync.WaitGroup
			var total int64
			var mu sync.Mutex
			for range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for sp := range next {
						sh, err := sess.RunShard(ctx, sp)
						if err != nil {
							b.Error(err)
							continue // keep draining so the feeder never blocks
						}
						mu.Lock()
						total += sh.Insts
						mu.Unlock()
					}
				}()
			}
			for _, sp := range shards {
				next <- sp
			}
			close(next)
			wg.Wait()
			b.SetBytes(total)
		}
	})
	b.Run("fused", func(b *testing.B) {
		sess := NewSession(workers)
		for b.Loop() {
			rep, err := sess.Run(ctx, spec)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(rep.TotalInsts)
		}
	})
}
