package sim

import (
	"bytes"
	"context"
	"testing"

	"rebalance/internal/trace"
	"rebalance/internal/trace/replay"
)

// recordTrace runs one generation pass for the coordinate on the spec's
// engine with a replay.Recorder attached and returns the captured stream.
func recordTrace(ctx context.Context, c *trace.Compiled, seed uint64, norm *Spec) (*replay.Trace, error) {
	rec := replay.NewRecorder()
	rec.Reserve(int(norm.Insts))
	var e *trace.Executor
	if norm.Engine == EngineReference {
		e = trace.NewExecutor(c.Program(), seed)
	} else {
		e = trace.NewCompiledExecutor(c, seed)
	}
	e.SetContext(ctx)
	e.Attach(rec)
	var err error
	if norm.Engine == EngineReference {
		err = e.RunReference(norm.Insts)
	} else {
		err = e.Run(norm.Insts)
	}
	if err != nil {
		return nil, err
	}
	return rec.Trace(), nil
}

// TestReplayedResultsBitIdenticalAcrossRegistry is the registry-driven
// property test behind the replay package's correctness claim: for every
// registered observer kind — including grouped and parallel bpred — a
// result computed by replaying a materialized stream is byte-identical to
// one computed on the live generation path, across replay batch sizes
// 1/7/4096 and traces recorded under both engines.
func TestReplayedResultsBitIdenticalAcrossRegistry(t *testing.T) {
	specs := fusedPropertySpecs()
	covered := map[string]bool{}
	for _, sp := range specs {
		covered[sp.Kind] = true
	}
	for _, kind := range ObserverKinds() {
		if !covered[kind] {
			t.Fatalf("registered observer kind %q is not covered by the replay property test; add a spec for it", kind)
		}
	}
	cfgs, err := expandObservers(specs)
	if err != nil {
		t.Fatal(err)
	}

	sess := NewSession(1)
	c, err := sess.Compiled("comd-lite")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const seed, insts = 3, 20_000

	// Both engines emit one stream per coordinate, so the recorded traces
	// must be byte-identical.
	traces := map[string]*replay.Trace{}
	for _, engine := range []string{EngineCompiled, EngineReference} {
		tr, err := recordTrace(ctx, c, seed, &Spec{Insts: insts, Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		traces[engine] = tr
	}
	if !bytes.Equal(replay.Encode(traces[EngineCompiled]), replay.Encode(traces[EngineReference])) {
		t.Fatal("recorded streams differ between engines")
	}

	for _, engine := range []string{EngineCompiled, EngineReference} {
		norm := &Spec{Insts: insts, Engine: engine}
		for _, cfg := range cfgs {
			t.Run(engine+"/"+cfg.Key(), func(t *testing.T) {
				job := &shardJob{workload: "comd-lite", cfg: cfg, seed: seed}
				generated, err := runShard(ctx, c, job, norm)
				if err != nil {
					t.Fatal(err)
				}
				want, err := generated.Result.EncodeJSON()
				if err != nil {
					t.Fatal(err)
				}
				for _, batchSize := range []int{1, 7, 4096} {
					func() {
						obs := cfg.NewObserver(c.Program())
						if cl, ok := obs.(interface{ Close() }); ok {
							defer cl.Close()
						}
						if err := replay.Deliver(ctx, traces[engine], batchSize, obs); err != nil {
							t.Fatal(err)
						}
						res, err := obs.Finish()
						if err != nil {
							t.Fatal(err)
						}
						got, err := res.EncodeJSON()
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got, want) {
							t.Errorf("batchSize %d: replayed result differs from generated result\nreplayed:  %s\ngenerated: %s", batchSize, got, want)
						}
					}()
				}
			})
		}
	}
}
