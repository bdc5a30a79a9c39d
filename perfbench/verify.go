package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"rebalance/internal/sim"
	"rebalance/internal/wire"
)

// defaultSeed is the seed whose expected report digests are committed in
// digests.json. Any other seed is checked against an in-process
// reference computed outside the timed region.
const defaultSeed = 1

//go:embed digests.json
var digestsJSON []byte

type digestFile struct {
	Seed    uint64            `json:"seed"`
	Digests map[string]string `json:"digests"`
}

// committedDigest returns the committed digest of workload's report
// under the default seed.
func committedDigest(workload string) (string, error) {
	var f digestFile
	if err := wire.StrictUnmarshal(digestsJSON, &f); err != nil {
		return "", fmt.Errorf("decoding digests.json: %w", err)
	}
	if f.Seed != defaultSeed {
		return "", fmt.Errorf("digests.json is for seed %d, want %d", f.Seed, defaultSeed)
	}
	d, ok := f.Digests[workload]
	if !ok {
		return "", fmt.Errorf("digests.json has no digest for %s", workload)
	}
	return d, nil
}

// normalizedJSON renders a report with every field that may differ
// between two correct runs of one spec zeroed: the timing fields
// (wall_ns, per-shard elapsed_ns), the pool size (workers is 0 for
// dispatched runs) and the cached provenance mark.
func normalizedJSON(rep *sim.Report) ([]byte, error) {
	c := *rep
	c.Workers = 0
	c.WallNS = 0
	c.Shards = make([]sim.Shard, len(rep.Shards))
	for i, sh := range rep.Shards {
		sh.ElapsedNS = 0
		sh.Cached = false
		c.Shards[i] = sh
	}
	data, err := json.Marshal(&c)
	if err != nil {
		return nil, fmt.Errorf("encoding report: %w", err)
	}
	return data, nil
}

// reportDigest is the sha256 of a report's normalized JSON.
func reportDigest(rep *sim.Report) (string, error) {
	data, err := normalizedJSON(rep)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// referenceDigest runs spec on a fresh cache-less session and digests it.
func referenceDigest(ctx context.Context, spec *sim.Spec, workers int) (string, error) {
	rep, err := sim.NewSession(workers).Run(ctx, spec)
	if err != nil {
		return "", fmt.Errorf("reference run: %w", err)
	}
	return reportDigest(rep)
}

// memoRunner is a sim.ShardRunner that computes each distinct shard once
// on a cache-less session and replays its encoded record afterwards. A
// Session routed through it gives the synchronous reference report of
// any spec whose shards overlap earlier ones, at the cost of the new
// shards only. Records are decoded afresh per use, so no result object
// is shared between reports.
type memoRunner struct {
	sess    *sim.Session
	workers int

	mu      sync.Mutex
	records map[string][]byte
}

func newMemoRunner(workers int) *memoRunner {
	return &memoRunner{sess: sim.NewSession(1), workers: workers, records: map[string][]byte{}}
}

func (m *memoRunner) RunShards(ctx context.Context, specs []sim.ShardSpec) ([]sim.Shard, error) {
	keys := make([]string, len(specs))
	var missing []int
	m.mu.Lock()
	for i, sp := range specs {
		k, err := json.Marshal(sp)
		if err != nil {
			m.mu.Unlock()
			return nil, fmt.Errorf("encoding shard spec: %w", err)
		}
		keys[i] = string(k)
		if _, ok := m.records[keys[i]]; !ok {
			missing = append(missing, i)
		}
	}
	m.mu.Unlock()

	errs := make([]error, len(specs))
	sem := make(chan struct{}, m.workers)
	var wg sync.WaitGroup
	for _, i := range missing {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			sh, err := m.sess.RunShard(ctx, specs[i])
			if err != nil {
				errs[i] = err
				return
			}
			rec, err := sim.EncodeShard(sh)
			if err != nil {
				errs[i] = err
				return
			}
			m.mu.Lock()
			m.records[keys[i]] = rec
			m.mu.Unlock()
		}(i)
	}
	wg.Wait()

	out := make([]sim.Shard, len(specs))
	for i, sp := range specs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		cfg, err := sp.Config()
		if err != nil {
			return nil, err
		}
		m.mu.Lock()
		rec := m.records[keys[i]]
		m.mu.Unlock()
		if out[i], err = sim.DecodeShard(rec, sp, cfg); err != nil {
			return nil, err
		}
	}
	return out, nil
}
