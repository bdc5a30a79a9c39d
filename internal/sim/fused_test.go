package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"rebalance/internal/isa"
	"rebalance/internal/program"
	"rebalance/internal/trace"
)

// runShard executes one shard as a group of one — the unit RunShard and
// the result cache's compute path take.
func runShard(ctx context.Context, c *trace.Compiled, job *shardJob, norm *Spec) (Shard, error) {
	shards, errs := execGroup(ctx, c, []*shardJob{job}, norm)
	return shards[0], errs[0]
}

// fusedPropertySpecs covers every registered observer kind, plus the
// grouped and parallel bpred shapes, with small configurations. The test
// below fails if a future kind registers without being added here.
func fusedPropertySpecs() []ObserverSpec {
	return []ObserverSpec{
		{Kind: "bpred", Options: json.RawMessage(`{"configs":["gshare-small","tage-small"]}`)},
		{Kind: "bpred", Options: json.RawMessage(`{"configs":["gshare-small","tournament-small"],"grouped":true}`)},
		{Kind: "bpred", Options: json.RawMessage(`{"configs":["tage-small","tournament-small"],"parallel":true}`)},
		{Kind: "btb", Options: json.RawMessage(`{"geometries":[{"entries":512,"ways":4}]}`)},
		{Kind: "icache", Options: json.RawMessage(`{"geometries":[{"size_kb":16,"line_bytes":64,"ways":4}]}`)},
		{Kind: "branch-mix"},
		{Kind: "bias"},
		{Kind: "footprint"},
		{Kind: "bbl"},
	}
}

// fusedPass runs one executor over the coordinate with one fresh observer
// per configuration attached and returns each configuration's encoded
// result, keyed by configuration. batch sets the compiled engine's
// emission buffer; the reference engine delivers per instruction.
func fusedPass(t *testing.T, c *trace.Compiled, cfgs []ObserverConfig, engine string, seed uint64, insts int64, batch int) map[string][]byte {
	t.Helper()
	obs := make([]ShardObserver, len(cfgs))
	attach := make([]trace.Observer, len(cfgs))
	for i, cfg := range cfgs {
		obs[i] = cfg.NewObserver(c.Program())
		attach[i] = obs[i]
		if cl, ok := obs[i].(interface{ Close() }); ok {
			defer cl.Close()
		}
	}
	var err error
	if engine == EngineReference {
		e := trace.NewExecutor(c.Program(), seed)
		e.Attach(attach...)
		err = e.RunReference(insts)
	} else {
		e := trace.NewCompiledExecutor(c, seed)
		e.SetBatchSize(batch)
		e.Attach(attach...)
		err = e.Run(insts)
	}
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(cfgs))
	for i, cfg := range cfgs {
		res, err := obs[i].Finish()
		if err != nil {
			t.Fatal(err)
		}
		out[cfg.Key()] = []byte(encode(t, res))
	}
	return out
}

// TestFusedResultsBitIdenticalAcrossRegistry is the registry-driven
// property test behind fusing: for every registered observer kind —
// including grouped and parallel bpred — a result computed by one
// executor with all N observers attached is byte-identical to the result
// of a run with that observer alone, on both engines and across emission
// batch sizes 1/7/4096. The production group pass (execGroup) is held to
// the same standard.
func TestFusedResultsBitIdenticalAcrossRegistry(t *testing.T) {
	specs := fusedPropertySpecs()
	covered := map[string]bool{}
	for _, sp := range specs {
		covered[sp.Kind] = true
	}
	for _, kind := range ObserverKinds() {
		if !covered[kind] {
			t.Fatalf("registered observer kind %q is not covered by the fused property test; add a spec for it", kind)
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
	batches := []int{1, 7, 4096}

	for _, engine := range []string{EngineCompiled, EngineReference} {
		norm := &Spec{Insts: insts, Engine: engine}
		fused := make([]map[string][]byte, len(batches))
		for b, size := range batches {
			fused[b] = fusedPass(t, c, cfgs, engine, seed, insts, size)
		}
		group := make([]*shardJob, len(cfgs))
		for i, cfg := range cfgs {
			group[i] = &shardJob{workload: "comd-lite", cfg: cfg, seed: seed}
		}
		grouped, groupErrs := execGroup(ctx, c, group, norm)
		for i, cfg := range cfgs {
			t.Run(engine+"/"+cfg.Key(), func(t *testing.T) {
				alone, err := runShard(ctx, c, group[i], norm)
				if err != nil {
					t.Fatal(err)
				}
				want := []byte(encode(t, alone.Result))
				for b, size := range batches {
					if got := fused[b][cfg.Key()]; !bytes.Equal(got, want) {
						t.Errorf("batch %d: fused result differs from a separate run\nfused:    %s\nseparate: %s", size, got, want)
					}
				}
				if groupErrs[i] != nil {
					t.Fatal(groupErrs[i])
				}
				if got := []byte(encode(t, grouped[i].Result)); !bytes.Equal(got, want) {
					t.Errorf("execGroup result differs from a separate run\ngroup:    %s\nseparate: %s", got, want)
				}
				if grouped[i].Insts != alone.Insts {
					t.Errorf("group shard emitted %d insts, separate run %d", grouped[i].Insts, alone.Insts)
				}
			})
		}
	}
}

// TestFusedRunBitIdenticalToGolden runs the golden grid on one worker, so
// the pool schedules whole coordinates (8 observers per pass), and on more
// workers than coordinates, so coordinates split into sub-groups: both
// reports must match the committed golden file byte for byte.
func TestFusedRunBitIdenticalToGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "report_v1.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 7} {
		rep, err := NewSession(workers).Run(context.Background(), goldenRunSpec())
		if err != nil {
			t.Fatal(err)
		}
		if got := renderGolden(t, rep); string(got) != string(want) {
			t.Errorf("workers=%d: fused report drifted from the golden file;\ngot:\n%s", workers, got)
		}
	}
}

// TestPlanUnits pins the planner as a pure function: whole coordinates
// when they suffice to occupy the workers, round-robin sub-groups when
// they do not, and every job scheduled exactly once either way.
func TestPlanUnits(t *testing.T) {
	grid := func(workloads []string, configs int, seeds []uint64) []shardJob {
		var jobs []shardJob
		for _, w := range workloads {
			for k := range configs {
				for _, s := range seeds {
					jobs = append(jobs, shardJob{workload: w, cfg: bpredCfg{name: fmt.Sprint(k)}, seed: s})
				}
			}
		}
		return jobs
	}
	cases := []struct {
		name      string
		jobs      []shardJob
		workers   int
		wantUnits int
	}{
		{"one coordinate x 9 configs on 2 workers", grid([]string{"a"}, 9, []uint64{1}), 2, 2},
		{"one coordinate x 9 configs on 4 workers", grid([]string{"a"}, 9, []uint64{1}), 4, 4},
		{"more workers than shards", grid([]string{"a"}, 3, []uint64{1}), 8, 3},
		{"coordinates cover the workers", grid([]string{"a", "b"}, 9, []uint64{1, 2, 3, 4}), 2, 8},
		{"two coordinates on 3 workers", grid([]string{"a"}, 9, []uint64{1, 2}), 3, 4},
		{"single worker", grid([]string{"a", "b"}, 9, []uint64{1, 2}), 1, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			units := planUnits(tc.jobs, tc.workers)
			if len(units) != tc.wantUnits {
				t.Errorf("%d units, want %d: %v", len(units), tc.wantUnits, units)
			}
			if min(tc.workers, len(tc.jobs)) > len(units) {
				t.Errorf("%d units cannot occupy %d workers", len(units), min(tc.workers, len(tc.jobs)))
			}
			seen := make([]int, len(tc.jobs))
			for _, u := range units {
				if len(u) == 0 {
					t.Fatal("empty unit")
				}
				lead := tc.jobs[u[0]]
				for _, i := range u {
					seen[i]++
					if tc.jobs[i].workload != lead.workload || tc.jobs[i].seed != lead.seed {
						t.Errorf("unit %v mixes coordinates", u)
					}
				}
			}
			for i, n := range seen {
				if n != 1 {
					t.Errorf("job %d scheduled %d times", i, n)
				}
			}
		})
	}
	// The narrow case deals observers round-robin, so the two passes carry
	// 5 and 4 observers.
	units := planUnits(grid([]string{"a"}, 9, []uint64{1}), 2)
	if fmt.Sprint(units) != "[[0 2 4 6 8] [1 3 5 7]]" {
		t.Errorf("units = %v, want round-robin [[0 2 4 6 8] [1 3 5 7]]", units)
	}
}

// TestFusedElapsedSumsToPassWall: each shard of a group reports an even
// share of the pass wall, so a group's elapsed_ns sum to the wall once
// and Σ elapsed_ns over a report never exceeds workers × wall.
func TestFusedElapsedSumsToPassWall(t *testing.T) {
	sess := NewSession(1)
	rep, err := sess.Run(context.Background(), &Spec{
		Workloads: []string{"comd-lite"},
		Seeds:     []uint64{1},
		Insts:     20_000,
		Observers: fullObserverSpecs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	lo, hi := rep.Shards[0].ElapsedNS, rep.Shards[0].ElapsedNS
	for _, sh := range rep.Shards {
		sum += sh.ElapsedNS
		lo, hi = min(lo, sh.ElapsedNS), max(hi, sh.ElapsedNS)
	}
	if hi-lo > 1 {
		t.Errorf("shares of one pass range over [%d, %d]; want equal shares up to one remainder ns", lo, hi)
	}
	if sum > rep.WallNS {
		t.Errorf("Σ elapsed_ns = %d exceeds the run wall %d on one worker", sum, rep.WallNS)
	}
}

// trackedCfg wraps an observer configuration so a test can see that the
// group closed every observer it created.
type trackedCfg struct {
	ObserverConfig
	closed *int
}

func (c trackedCfg) NewObserver(p *program.Program) ShardObserver {
	return &trackedObs{ShardObserver: c.ObserverConfig.NewObserver(p), closed: c.closed}
}

type trackedObs struct {
	ShardObserver
	closed *int
}

func (o *trackedObs) ObserveBatch(batch []isa.Inst) {
	if bo, ok := o.ShardObserver.(trace.BatchObserver); ok {
		bo.ObserveBatch(batch)
		return
	}
	for _, in := range batch {
		o.Observe(in)
	}
}

func (o *trackedObs) Close() {
	if cl, ok := o.ShardObserver.(interface{ Close() }); ok {
		cl.Close()
	}
	*o.closed++
}

// cancelCfg is an observer configuration whose observer cancels the run's
// context on its first batch: a deterministic mid-pass cancellation.
type cancelCfg struct {
	ObserverConfig
	cancel context.CancelFunc
}

func (c cancelCfg) Key() string { return "test/cancel" }

func (c cancelCfg) NewObserver(*program.Program) ShardObserver {
	return &cancelObs{cancel: c.cancel}
}

type cancelObs struct{ cancel context.CancelFunc }

func (o *cancelObs) Observe(isa.Inst)        { o.cancel() }
func (o *cancelObs) ObserveBatch([]isa.Inst) { o.cancel() }
func (o *cancelObs) Finish() (Result, error) {
	return nil, errors.New("cancelObs: finished a cancelled pass")
}

// waitGoroutines waits until the goroutine count falls back to base:
// closed workers exit asynchronously. The deadline only bounds a leak's
// failure; nothing is asserted about how long the exit takes.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, want %d: observer workers leaked", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFusedCancellationMidPass cancels the context from inside a pass: the
// group must report the context error for every shard, close every
// observer it created, and leave no Parallelize'd bpred worker behind.
func TestFusedCancellationMidPass(t *testing.T) {
	cfgs, err := expandObservers(fusedPropertySpecs())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewSession(1).Compiled("comd-lite")
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	closed := 0
	var group []*shardJob
	for _, cfg := range cfgs {
		group = append(group, &shardJob{workload: "comd-lite", cfg: trackedCfg{cfg, &closed}, seed: 1})
	}
	group = append(group, &shardJob{workload: "comd-lite", cfg: trackedCfg{cancelCfg{cancel: cancel}, &closed}, seed: 1})
	_, errs := execGroup(ctx, c, group, &Spec{Insts: 2_000_000, Engine: EngineCompiled})
	for k, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("shard %d (%s): err = %v, want context.Canceled", k, group[k].cfg.Key(), err)
		}
	}
	if closed != len(group) {
		t.Errorf("closed %d of %d observers", closed, len(group))
	}
	waitGoroutines(t, base)

	// Cancellation is a judgment on the run: the session aborts, and stays
	// usable with a fresh context.
	sess := NewSession(2)
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := sess.Run(ctx2, goldenRunSpec()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run under a cancelled context = %v, want context.Canceled", err)
	}
	if _, err := sess.Run(context.Background(), goldenRunSpec()); err != nil {
		t.Fatal(err)
	}
}

// failFinishCfg wraps a configuration whose Finish always fails.
type failFinishCfg struct{ ObserverConfig }

func (c failFinishCfg) NewObserver(p *program.Program) ShardObserver {
	return failFinishObs{c.ObserverConfig.NewObserver(p)}
}

type failFinishObs struct{ ShardObserver }

func (failFinishObs) Finish() (Result, error) { return nil, errors.New("finish failed") }

// TestFusedFinishFailureFailsOnlyItsShard: with AllowPartial, one observer
// whose Finish fails costs only its own shard; the other observers of the
// same pass survive with the results they would have had alone.
func TestFusedFinishFailureFailsOnlyItsShard(t *testing.T) {
	cfgs, err := expandObservers(fullObserverSpecs())
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(1)
	c, err := sess.Compiled("comd-lite")
	if err != nil {
		t.Fatal(err)
	}
	norm := &Spec{Insts: 20_000, Engine: EngineCompiled, AllowPartial: true}
	const bad = 2
	var jobs []shardJob
	for i, cfg := range cfgs {
		if i == bad {
			cfg = failFinishCfg{cfg}
		}
		jobs = append(jobs, shardJob{workload: "comd-lite", cfg: cfg, seed: 1})
	}
	shards, failures, err := sess.runLocal(context.Background(), norm, jobs, map[string]*trace.Compiled{"comd-lite": c})
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 1 || failures[0].Index != bad {
		t.Fatalf("failures = %+v, want exactly shard %d", failures, bad)
	}
	for i := range jobs {
		if i == bad {
			continue
		}
		alone, err := runShard(context.Background(), c, &jobs[i], norm)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := encode(t, shards[i].Result), encode(t, alone.Result); got != want {
			t.Errorf("%s: survivor differs from a separate run\ngot:  %s\nwant: %s", jobs[i].cfg.Key(), got, want)
		}
	}
}

// TestFusedComposesWithResultCache: a unit peels off result-cache hits
// and fuses only the rest. Half the grid is warmed through RunShard, then
// the full grid runs — warmed shards come back Cached, the rest compute —
// and a second identical Run is all Cached. Every report matches the
// golden file byte for byte.
func TestFusedComposesWithResultCache(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "report_v1.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	sess := newCachedSession(t, 1, "")
	spec := goldenRunSpec()
	cfgs, err := expandObservers(spec.Observers)
	if err != nil {
		t.Fatal(err)
	}
	warmed := map[string]bool{}
	for i, cfg := range cfgs {
		if i%2 == 1 {
			continue
		}
		warmed[cfg.Key()] = true
		for _, w := range spec.Workloads {
			for _, seed := range spec.Seeds {
				sp := ShardSpec{Workload: w, Seed: seed, Insts: spec.Insts, Observer: cfg.Spec()}
				if _, err := sess.RunShard(context.Background(), sp); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	first, err := sess.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range first.Shards {
		if sh.Cached != warmed[sh.Observer] {
			t.Errorf("shard {%s %s seed %d} cached = %v, want %v", sh.Workload, sh.Observer, sh.Seed, sh.Cached, warmed[sh.Observer])
		}
	}
	second, err := sess.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range second.Shards {
		if !sh.Cached {
			t.Errorf("second run: shard {%s %s seed %d} not served from the cache", sh.Workload, sh.Observer, sh.Seed)
		}
	}
	if got := renderGolden(t, first); string(got) != string(want) {
		t.Errorf("partly cached report drifted from the golden file;\ngot:\n%s", got)
	}
	if got := renderGolden(t, second); string(got) != string(want) {
		t.Errorf("fully cached report drifted from the golden file;\ngot:\n%s", got)
	}
}

// TestRunShardMatchesFusedRun: the worker-protocol entry point (a group of
// one) and the pooled fused pass produce the same shard bytes.
func TestRunShardMatchesFusedRun(t *testing.T) {
	rep, err := NewSession(1).Run(context.Background(), goldenRunSpec())
	if err != nil {
		t.Fatal(err)
	}
	cfgs, err := expandObservers(goldenRunSpec().Observers)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]ObserverConfig{}
	for _, cfg := range cfgs {
		byKey[cfg.Key()] = cfg
	}
	sess := NewSession(1)
	for _, fused := range rep.Shards {
		sp := ShardSpec{Workload: fused.Workload, Seed: fused.Seed, Insts: 40_000, Observer: byKey[fused.Observer].Spec()}
		single, err := sess.RunShard(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
		fused.ElapsedNS, single.ElapsedNS = 0, 0
		fj, _ := EncodeShard(fused)
		sj, _ := EncodeShard(single)
		if !bytes.Equal(fj, sj) {
			t.Errorf("RunShard differs from the fused pass:\nsingle: %s\nfused:  %s", sj, fj)
		}
	}
}
