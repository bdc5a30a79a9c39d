package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rebalance/internal/analysis"
	"rebalance/internal/bpred"
	"rebalance/internal/btb"
	"rebalance/internal/icache"
	"rebalance/internal/isa"
	"rebalance/internal/program"
	"rebalance/internal/sim"
	"rebalance/internal/sim/dispatch"
	"rebalance/internal/sim/shardcache"
	"rebalance/internal/trace"
	"rebalance/internal/workload"
	"rebalance/internal/workload/synth"
)

// Probe sizes: each layer call is repeated and the median kept.
const (
	probeInsts       = 1_000_000 // stream length per program for the ns/inst probes
	probeObserveReps = 3
	probeBuildReps   = 5
	probeCodecReps   = 5
	probeCacheReps   = 20
	wireProbeReps    = 5
)

// probeProgram is one program of the fixed per-layer probe set.
type probeProgram struct {
	label string
	build func() (*program.Program, error)
}

// probeLabels name the probe programs in per-layer metric names.
var probeLabels = []string{"comd-lite", "xalan-lite", "synth-small", "synth-large"}

// probePrograms are measured on every traced run, whatever the workload,
// so every traced run reports the same per-layer metric names: the two
// registered paper workloads and the predictor-synth programs below and
// above the modelled I-cache sizes.
func probePrograms(seed uint64) []probeProgram {
	small := synthScenarios[0].params(seed, 0)
	large := synthScenarios[2].params(seed, 2)
	return []probeProgram{
		{probeLabels[0], func() (*program.Program, error) { return workload.Build("comd-lite") }},
		{probeLabels[1], func() (*program.Program, error) { return workload.Build("xalan-lite") }},
		{probeLabels[2], func() (*program.Program, error) { return synth.Build(small) }},
		{probeLabels[3], func() (*program.Program, error) { return synth.Build(large) }},
	}
}

// nopObserver consumes batches without looking at them: the executor's
// bare generation cost.
type nopObserver struct{}

func (nopObserver) Observe(isa.Inst)        {}
func (nopObserver) ObserveBatch([]isa.Inst) {}

// capture records a stream batch by batch, so replaying it preserves
// the executor's batch boundaries.
type capture struct{ batches [][]isa.Inst }

func (c *capture) Observe(in isa.Inst) { c.batches = append(c.batches, []isa.Inst{in}) }
func (c *capture) ObserveBatch(b []isa.Inst) {
	c.batches = append(c.batches, append([]isa.Inst(nil), b...))
}

// observerProbe builds a fresh observer and returns the function that
// seals it after the stream (nil when there is nothing to seal).
type observerProbe struct {
	name string
	make func() (trace.BatchObserver, func())
}

func observerProbes() []observerProbe {
	var out []observerProbe
	for _, name := range bpred.ConfigNames() {
		out = append(out, observerProbe{"bpred." + name, func() (trace.BatchObserver, func()) {
			p, err := bpred.NewByName(name)
			if err != nil {
				panic(err) // the registry listed the name
			}
			return bpred.NewSim(p), nil
		}})
	}
	out = append(out, observerProbe{"bpred.grouped9", func() (trace.BatchObserver, func()) {
		var preds []bpred.Predictor
		for _, name := range bpred.ConfigNames() {
			p, err := bpred.NewByName(name)
			if err != nil {
				panic(err)
			}
			preds = append(preds, p)
		}
		s := bpred.NewSim(preds...).Parallelize()
		return s, s.Close
	}})
	for _, g := range [][2]int{{512, 4}, {1024, 8}} {
		out = append(out, observerProbe{fmt.Sprintf("btb.%dx%d", g[0], g[1]), func() (trace.BatchObserver, func()) {
			return btb.New(g[0], g[1]), nil
		}})
	}
	for _, g := range [][2]int{{16, 4}, {32, 8}} {
		out = append(out, observerProbe{fmt.Sprintf("icache.%dKB-64B-%dw", g[0], g[1]), func() (trace.BatchObserver, func()) {
			c := icache.New(g[0]*1024, 64, g[1])
			return c, c.Finish
		}})
	}
	out = append(out,
		observerProbe{"analysis.branch-mix", func() (trace.BatchObserver, func()) { return analysis.NewBranchMix(), nil }},
		observerProbe{"analysis.bbl", func() (trace.BatchObserver, func()) { return analysis.NewBBL(), nil }},
	)
	return out
}

// probeLayers times the workload, trace, bpred, btb, icache and analysis
// layers on every probe program, each call inside a span.
func probeLayers(seed uint64, ms *metricSet, rec *recorder) error {
	streamSeed := streamSeeds(seed, "probe-stream", 1)[0]
	for _, pp := range probePrograms(seed) {
		tr := "probe-" + pp.label
		var prog *program.Program
		var builds, compiles []float64
		for range probeBuildReps {
			var err error
			d := rec.timed(tr, "build", 0, func() { prog, err = pp.build() })
			if err != nil {
				return fmt.Errorf("building %s: %w", pp.label, err)
			}
			builds = append(builds, millis(d))
		}
		var c *trace.Compiled
		for range probeBuildReps {
			var err error
			d := rec.timed(tr, "trace.Compile", 0, func() { c, err = trace.Compile(prog) })
			if err != nil {
				return fmt.Errorf("compiling %s: %w", pp.label, err)
			}
			compiles = append(compiles, millis(d))
		}
		ms.add("workload.build_ms."+pp.label, median(builds), "ms")
		ms.add("trace.compile_ms."+pp.label, median(compiles), "ms")

		var gen []float64
		for range probeObserveReps {
			e := trace.NewCompiledExecutor(c, streamSeed)
			e.Attach(nopObserver{})
			var err error
			d := rec.timed(tr, "trace.Executor.Run", 0, func() { err = e.Run(probeInsts) })
			if err != nil {
				return fmt.Errorf("generating %s: %w", pp.label, err)
			}
			gen = append(gen, float64(d.Nanoseconds())/float64(e.Emitted()))
		}
		ms.add("trace.gen_ns_per_inst."+pp.label, median(gen), "ns/inst")

		capt := &capture{}
		e := trace.NewCompiledExecutor(c, streamSeed)
		e.Attach(capt)
		if err := e.Run(probeInsts); err != nil {
			return fmt.Errorf("capturing %s: %w", pp.label, err)
		}
		n := float64(e.Emitted())
		for _, op := range observerProbes() {
			var xs []float64
			for range probeObserveReps {
				obs, seal := op.make()
				d := rec.timed(tr, op.name+".ObserveBatch", 0, func() {
					for _, b := range capt.batches {
						obs.ObserveBatch(b)
					}
					if seal != nil {
						seal()
					}
				})
				xs = append(xs, float64(d.Nanoseconds())/n)
			}
			ms.add(op.name+".ns_per_inst."+pp.label, median(xs), "ns/inst")
		}
	}
	return nil
}

// probeReportCodec times json.Marshal and sim.DecodeReport of a report
// the workload produced, per shard.
func probeReportCodec(rep *sim.Report, ms *metricSet, rec *recorder) error {
	var enc, dec []float64
	var data []byte
	for range probeCodecReps {
		var err error
		d := rec.timed("probe-codec", "json.Marshal(report)", 0, func() { data, err = json.Marshal(rep) })
		if err != nil {
			return fmt.Errorf("encoding report: %w", err)
		}
		enc = append(enc, float64(d.Nanoseconds())/1e3/float64(len(rep.Shards)))
		d = rec.timed("probe-codec", "sim.DecodeReport", 0, func() { _, err = sim.DecodeReport(data) })
		if err != nil {
			return fmt.Errorf("decoding report: %w", err)
		}
		dec = append(dec, float64(d.Nanoseconds())/1e3/float64(len(rep.Shards)))
	}
	ms.add("sim.report_encode_us_per_shard", median(enc), "us")
	ms.add("sim.report_decode_us_per_shard", median(dec), "us")
	return nil
}

// probeShardCache times Cache.Put, Cache.Get (memory hit) and a disk-tier
// hit on the shard records of a report the workload produced. Keys have
// the shape of real shard addresses.
func probeShardCache(rep *sim.Report, tmpRoot string, ms *metricSet, rec *recorder) error {
	keys := make([]string, len(rep.Shards))
	vals := make([][]byte, len(rep.Shards))
	for i, sh := range rep.Shards {
		data, err := sim.EncodeShard(sh)
		if err != nil {
			return err
		}
		sum := sha256.Sum256([]byte(fmt.Sprintf("%s\x00%d\x00%s\x00%d", sh.Workload, sh.Seed, sh.Observer, sh.Insts)))
		keys[i], vals[i] = "sc2-"+hex.EncodeToString(sum[:]), data
	}
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(len(keys)) }
	var puts, gets, disk []float64
	for range probeCacheReps {
		c, err := shardcache.New(shardcache.Options{})
		if err != nil {
			return err
		}
		puts = append(puts, per(rec.timed("probe-shardcache", "Cache.Put", 0, func() {
			for i := range keys {
				c.Put(keys[i], vals[i])
			}
		})))
		var miss bool
		gets = append(gets, per(rec.timed("probe-shardcache", "Cache.Get", 0, func() {
			for _, k := range keys {
				_, ok := c.Get(k)
				miss = miss || !ok
			}
		})))
		if miss {
			return fmt.Errorf("shard cache probe: memory tier missed a key it holds")
		}
	}
	dir, err := os.MkdirTemp(tmpRoot, "shardcache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w, err := shardcache.New(shardcache.Options{Dir: dir})
	if err != nil {
		return err
	}
	for i := range keys {
		w.Put(keys[i], vals[i])
	}
	for range probeCacheReps {
		c, err := shardcache.New(shardcache.Options{Dir: dir}) // empty memory tier: every Get is a disk hit
		if err != nil {
			return err
		}
		var miss bool
		disk = append(disk, per(rec.timed("probe-shardcache", "Cache.Get(disk)", 0, func() {
			for _, k := range keys {
				_, ok := c.Get(k)
				miss = miss || !ok
			}
		})))
		if miss {
			return fmt.Errorf("shard cache probe: disk tier missed a key it holds")
		}
	}
	ms.add("shardcache.put_us", median(puts), "us")
	ms.add("shardcache.get_hit_us", median(gets), "us")
	ms.add("shardcache.disk_get_hit_us", median(disk), "us")
	return nil
}

// probeWire times one shard through a simd worker (HTTPBackend.RunShard)
// against the same shard in process (Session.RunShard) and reports the
// median difference. Each repetition uses a fresh stream seed, so the
// worker's result cache never answers.
func probeWire(ctx context.Context, svc *service, tmpl sim.ShardSpec, seed uint64, ms *metricSet, rec *recorder) error {
	backend := dispatch.NewHTTPBackend(svc.worker.addr, svc.client)
	local := sim.NewSession(1)
	seeds := streamSeeds(seed, "wire-probe", wireProbeReps+1)
	var over []float64
	for i, sd := range seeds {
		sp := tmpl
		sp.Seed = sd
		var lerr, herr error
		var ld, hd time.Duration
		runLocal := func() {
			ld = rec.timed("probe-wire", "sim.Session.RunShard", 0, func() { _, lerr = local.RunShard(ctx, sp) })
		}
		runHTTP := func() {
			hd = rec.timed("probe-wire", "dispatch.HTTPBackend.RunShard", 0, func() { _, herr = backend.RunShard(ctx, sp) })
		}
		if i%2 == 0 {
			runLocal()
			runHTTP()
		} else {
			runHTTP()
			runLocal()
		}
		if lerr != nil || herr != nil {
			return fmt.Errorf("wire probe: local %v, http %v", lerr, herr)
		}
		if i > 0 { // the first pair compiles the program on both sides
			over = append(over, millis(hd-ld))
		}
	}
	ms.add("dispatch.wire_overhead_ms", median(over), "ms")
	return nil
}

func tmpDir(root string) (string, error) {
	dir := filepath.Join(root, ".bench_build", "tmp")
	return dir, os.MkdirAll(dir, 0o755)
}

// layerMetricNames lists every per-layer metric a traced run reports,
// whatever the workload.
func layerMetricNames() []string {
	var out []string
	for _, p := range probeLabels {
		out = append(out, "workload.build_ms."+p, "trace.compile_ms."+p, "trace.gen_ns_per_inst."+p)
		for _, op := range observerProbes() {
			out = append(out, op.name+".ns_per_inst."+p)
		}
	}
	out = append(out,
		"sim.pool_busy_frac", "sim.report_encode_us_per_shard", "sim.report_decode_us_per_shard",
		"shardcache.hit_ratio", "shardcache.get_hit_us", "shardcache.put_us", "shardcache.disk_get_hit_us",
		"dispatch.wire_overhead_ms", "dispatch.hedges",
		"sweep.queue_wait_ms.p50", "sweep.queue_wait_ms.p90", "sweep.run_ms.p50",
		"simd.result_fetch_ms.p50", "simd.polls_per_sweep")
	for _, n := range overheadOf {
		out = append(out, "tracing.overhead."+n)
	}
	return out
}
