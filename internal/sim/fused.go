package sim

import (
	"context"
	"time"

	"rebalance/internal/trace"
)

// planUnits groups the shard grid into the local pool's scheduling units.
// Every shard of one coordinate (workload, seed) shares an instruction
// stream, so a coordinate's shards form one unit that generates the
// stream once with all of their observers attached — the paper's
// several-tools-on-one-instrumented-run method. When the grid has fewer
// coordinates than workers, each coordinate's shards are dealt
// round-robin into sub-units, so there are at least min(workers,
// len(jobs)) units and no worker idles on a narrow sweep. Units list job
// indices; coordinates keep the grid's order of first appearance.
func planUnits(jobs []shardJob, workers int) [][]int {
	type coord struct {
		workload string
		seed     uint64
	}
	var groups [][]int
	at := map[coord]int{}
	for i := range jobs {
		k := coord{jobs[i].workload, jobs[i].seed}
		g, ok := at[k]
		if !ok {
			g = len(groups)
			at[k] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	want := min(workers, len(jobs))
	if len(groups) >= want {
		return groups
	}
	parts := (want + len(groups) - 1) / len(groups)
	var units [][]int
	for _, g := range groups {
		n := min(parts, len(g))
		for p := range n {
			var u []int
			for k := p; k < len(g); k += n {
				u = append(u, g[k])
			}
			units = append(units, u)
		}
	}
	return units
}

// runUnit executes one scheduling unit of the local pool: shards of a
// single coordinate. Results and errors land index-aligned in shards/errs.
//
// A unit of one goes through cachedShard and keeps the result cache's
// cross-run singleflight. A larger unit peels off result-cache hits first
// — decoded through DecodeShard and marked Cached, exactly as cachedShard
// serves them — then runs every remaining observer in one generation pass
// and writes each computed shard back. Within one run the grid has no
// duplicate keys, so a group gives up only the singleflight between
// concurrent Runs, where both computes produce the same canonical record.
func (s *Session) runUnit(ctx context.Context, c *trace.Compiled, jobs []shardJob, unit []int, norm *Spec, shards []Shard, errs []error) {
	if err := ctx.Err(); err != nil {
		for _, i := range unit {
			errs[i] = err
		}
		return
	}
	if len(unit) == 1 {
		i := unit[0]
		shards[i], errs[i] = s.cachedShard(ctx, c, &jobs[i], norm)
		return
	}
	pending := make([]*shardJob, 0, len(unit))
	at := make([]int, 0, len(unit))
	keys := make([]string, 0, len(unit))
	for _, i := range unit {
		job := &jobs[i]
		key := ""
		if s.cache != nil {
			spec := job.spec(norm)
			key = ShardCacheKey(spec, job.cfg)
			if data, ok := s.cache.Get(key); ok {
				if sh, err := DecodeShard(data, spec, job.cfg); err == nil {
					sh.Cached = true
					shards[i] = sh
					continue
				}
				// A record that no longer decodes degrades to a
				// recompute, exactly as in cachedShard.
				s.cache.Remove(key)
			}
		}
		pending = append(pending, job)
		at = append(at, i)
		keys = append(keys, key)
	}
	if len(pending) == 0 {
		return
	}
	got, gotErrs := execGroup(ctx, c, pending, norm)
	for k, i := range at {
		shards[i], errs[i] = got[k], gotErrs[k]
		if errs[i] != nil || s.cache == nil {
			continue
		}
		// Write-back mirrors cachedShard's compute path; an encoding
		// failure leaves the cache unpopulated, never fails the shard.
		if data, err := EncodeShard(got[k]); err == nil {
			s.cache.Put(keys[k], data)
		}
	}
}

// execGroup is the single execution seam beneath the result cache: it
// runs one generation pass of a coordinate (workload, seed) on the spec's
// engine with a fresh power-on observer per job attached, so the stream is
// generated once however many observers watch it. Every job must name the
// same coordinate. Fusing is invisible in the results: observers see the
// same instructions in the same batches as they would alone, and never
// each other.
//
// A failed or cancelled pass reports its error for every job. Finish
// errors stay with their own job. Every observer is closed before return,
// so observer-owned goroutines are released even when the pass errors
// mid-stream. Each shard's elapsed time is its even share of the pass
// wall, remainder nanoseconds to the first shards, so a group's shards
// sum to exactly the wall it took.
func execGroup(ctx context.Context, c *trace.Compiled, group []*shardJob, norm *Spec) ([]Shard, []error) {
	shards := make([]Shard, len(group))
	errs := make([]error, len(group))
	obs := make([]ShardObserver, len(group))
	attach := make([]trace.Observer, len(group))
	for k, job := range group {
		obs[k] = job.cfg.NewObserver(c.Program())
		attach[k] = obs[k]
	}
	defer func() {
		for _, o := range obs {
			if cl, ok := o.(interface{ Close() }); ok {
				cl.Close()
			}
		}
	}()
	seed := group[0].seed
	start := time.Now() //repolint:allow nodeterminism shard elapsed_ns timing field, excluded from goldens
	var e *trace.Executor
	if norm.Engine == EngineReference {
		e = trace.NewExecutor(c.Program(), seed)
	} else {
		e = trace.NewCompiledExecutor(c, seed)
	}
	e.SetContext(ctx)
	e.Attach(attach...)
	var err error
	if norm.Engine == EngineReference {
		err = e.RunReference(norm.Insts)
	} else {
		err = e.Run(norm.Insts)
	}
	if err != nil {
		for k := range errs {
			errs[k] = err
		}
		return shards, errs
	}
	wall := time.Since(start).Nanoseconds() //repolint:allow nodeterminism shard elapsed_ns timing field, excluded from goldens
	n := int64(len(group))
	for k, job := range group {
		res, err := obs[k].Finish()
		if err != nil {
			errs[k] = err
			continue
		}
		share := wall / n
		if int64(k) < wall%n {
			share++
		}
		shards[k] = Shard{
			Workload:  job.workload,
			Seed:      job.seed,
			Observer:  job.cfg.Key(),
			Insts:     e.Emitted(),
			ElapsedNS: share,
			Result:    res,
		}
	}
	return shards, errs
}
