package sim

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"rebalance/internal/sim/shardcache"
	"rebalance/internal/trace"
)

// cacheKeyVersion prefixes every canonical shard key. Bump it whenever
// the canonical form below, the wire encoding of results, or simulator
// semantics change in a way that makes old cached records stale — old
// entries then simply stop matching instead of serving wrong data.
//
// sc1 -> sc2: the canonical spec grew the inline synth/v1 parameter set.
// The version bump guarantees records written by sc1 builds (which could
// not distinguish a synth scenario from a registered workload of the same
// name) can never alias an sc2 shard in a shared cache directory, and
// vice versa — the prefixes differ, so the key spaces are disjoint by
// construction.
const cacheKeyVersion = "sc2"

// CacheKey returns the shard's content address: a versioned hash of the
// canonicalized spec {workload, synth-params, seed, insts, engine,
// observer}. Two specs get the same key exactly when they denote the same
// deterministic computation: the engine default is applied, the observer
// is re-described through its expanded configuration (cfg.Spec()), and
// inline synth params are canonicalized (defaults made explicit), so
// spelling differences in the request JSON — field order, engine omitted
// versus explicit, defaulted versus explicit knobs — collapse to one key,
// while every knob that changes the generated program changes the key.
// Invalid specs report ErrInvalidSpec.
func (sp ShardSpec) CacheKey() (string, error) {
	cfg, err := sp.Config()
	if err != nil {
		return "", err
	}
	return ShardCacheKey(sp, cfg), nil
}

// ShardCacheKey is CacheKey for callers that already expanded the spec's
// observer configuration (and thereby validated the spec), sparing a
// second expansion.
func ShardCacheKey(sp ShardSpec, cfg ObserverConfig) string {
	canon := ShardSpec{
		Workload: sp.Workload,
		Seed:     sp.Seed,
		Insts:    sp.Insts,
		Engine:   sp.Engine,
		Observer: cfg.Spec(),
	}
	if sp.Synth != nil {
		c, err := sp.Synth.Canonical()
		if err != nil {
			// Config validated the spec (the contract of this entry
			// point), so the params canonicalize.
			panic(fmt.Sprintf("sim: canonicalizing synth params for cache key: %v", err))
		}
		canon.Synth = &c
	}
	if canon.Engine == "" {
		canon.Engine = EngineCompiled
	}
	data, err := json.Marshal(canon)
	if err != nil {
		// The canonical spec is plain data assembled above; it cannot fail
		// to marshal.
		panic(fmt.Sprintf("sim: marshalling canonical shard spec: %v", err))
	}
	sum := sha256.Sum256(data)
	return fmt.Sprintf("%s-%x", cacheKeyVersion, sum)
}

// SetCache routes every shard this session executes — locally pooled runs
// and single RunShard calls alike — through the given result cache: a
// shard whose canonical key is cached is served from the stored wire
// record instead of recomputed, and concurrent identical shards are
// deduplicated to one compute (shardcache.Do). A nil c (the default)
// disables caching. Set before the first Run; the field is not
// synchronized against concurrent Runs.
func (s *Session) SetCache(c *shardcache.Cache) { s.cache = c }

// Cache returns the session's result cache, or nil.
func (s *Session) Cache() *shardcache.Cache { return s.cache }

// cachedShard executes one shard through the session's cache. The cache
// stores the shard's encoded wire record; a hit decodes it back through
// the same DecodeShard path remote results take, so a cached shard is
// bit-identical (up to timing fields and the Cached mark) to a cold one.
// The leader of a cold compute returns its in-process result directly.
func (s *Session) cachedShard(ctx context.Context, c *trace.Compiled, job *shardJob, norm *Spec) (Shard, error) {
	exec := func() (Shard, error) {
		shards, errs := execGroup(ctx, c, []*shardJob{job}, norm)
		return shards[0], errs[0]
	}
	if s.cache == nil {
		return exec()
	}
	spec := job.spec(norm)
	key := ShardCacheKey(spec, job.cfg)
	// A cached record that no longer decodes (e.g. an entry written by an
	// incompatible build) must degrade to a recompute, never fail the run:
	// drop the entry and go through Do again, so the recompute keeps the
	// singleflight dedup and repopulates the cache. A second decode
	// failure means the cache is being poisoned faster than we can clear
	// it (a shared disk dir and a writer on different semantics) — compute
	// directly and leave the cache out of it.
	for attempt := 0; ; attempt++ {
		var computed *Shard
		data, hit, err := s.cache.Do(ctx, key, func() ([]byte, error) {
			sh, err := exec()
			if err != nil {
				return nil, err
			}
			computed = &sh
			return EncodeShard(sh)
		})
		if err != nil {
			if computed != nil {
				// The simulation succeeded; only encoding for the cache
				// failed. The shard is still good — serve it and leave the
				// cache unpopulated.
				return *computed, nil
			}
			return Shard{}, err
		}
		if computed != nil {
			return *computed, nil
		}
		sh, err := DecodeShard(data, spec, job.cfg)
		if err == nil {
			sh.Cached = hit
			return sh, nil
		}
		s.cache.Remove(key)
		if attempt > 0 {
			return exec()
		}
	}
}
