// Command perfbench is the repository benchmark. It drives the simulator
// through its public entry points only — in process through
// sim.Session.Run, and as a service through real simd processes over
// loopback HTTP — checks every output, and prints every metric by name
// and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 they
// are the per-layer ones, measured by timing calls into each layer from
// this package, and the run writes its spans under .bench_build/.
//
// Run it through run.py, which builds it and simd from the checkout:
//
//	python3 perfbench/run.py --workload charz-grid --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"rebalance/internal/sim"
)

// Set-up repetitions per run; the median is reported. Local set-up is a
// few milliseconds at most, so it is repeated more.
const (
	localSetupReps   = 25
	serviceSetupReps = 9
)

type config struct {
	workload string
	seed     uint64
	dur      time.Duration
	trace    bool
	simd     string
	root     string
	workers  int
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", defaultSeed, "input seed; seed 1 is checked against committed digests")
	secs := fs.Int("seconds", 20, "measured seconds per run")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics and writing spans")
	simd := fs.String("simd", "", "path to the simd binary built from this checkout")
	root := fs.String("root", ".", "root of the checkout")
	commit := fs.String("commit", "", "commit of the checkout, if known")
	update := fs.Bool("update-digests", false, "recompute perfbench/digests.json for the default seed and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *update {
		if err := updateDigests(ctx, *root); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if !slices.Contains(workloadNames, *wl) || *secs < 1 || (*traced != 0 && *traced != 1) || *simd == "" {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1, -trace 0|1 and -simd\n", strings.Join(workloadNames, ", "))
		return 2
	}
	if _, err := os.Stat(*simd); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: simd binary:", err)
		return 2
	}
	cfg := config{workload: *wl, seed: *seed, dur: time.Duration(*secs) * time.Second, trace: *traced == 1,
		simd: *simd, root: *root, workers: runtime.NumCPU()}
	cpu0 := readCPUTimes()
	res, err := runWorkload(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.StealFrac = stealSince(cpu0)
	res.Host = fingerprint(*root, *commit)
	if err := res.emit(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// result is one run's outcome.
type result struct {
	Host          Host              `json:"host"`
	Workload      string            `json:"workload"`
	Seed          uint64            `json:"seed"`
	Seconds       float64           `json:"seconds"`
	Traced        bool              `json:"traced"`
	Workers       int               `json:"workers"`
	Attempted     int               `json:"attempted"`
	Failed        int               `json:"failed"`
	ErrorRate     float64           `json:"error_rate"`
	Errors        []string          `json:"errors,omitempty"`
	CacheHitShare float64           `json:"cache_hit_share"`
	StealFrac     float64           `json:"host_steal_frac"`
	Check         string            `json:"check"`
	Metrics       map[string]Metric `json:"metrics"`
	SpansFile     string            `json:"spans_file,omitempty"`
	order         []string
}

func runWorkload(ctx context.Context, cfg config) (*result, error) {
	if cfg.workload == wlSweepsService {
		return runServiceWorkload(ctx, cfg)
	}
	return runLocalWorkload(ctx, cfg)
}

func localSpec(workload string, seed uint64) *sim.Spec {
	if workload == wlCharzGrid {
		return charzGridSpec(seed)
	}
	return predictorSynthSpec(seed)
}

// expectedDigest is the committed digest under the default seed and an
// in-process reference run (outside the timed region) otherwise.
func expectedDigest(ctx context.Context, cfg config, spec *sim.Spec) (string, string, error) {
	if cfg.seed == defaultSeed {
		d, err := committedDigest(cfg.workload)
		return d, "committed digest (seed 1)", err
	}
	d, err := referenceDigest(ctx, spec, cfg.workers)
	return d, "in-process Session.Run reference", err
}

func runLocalWorkload(ctx context.Context, cfg config) (*result, error) {
	spec := localSpec(cfg.workload, cfg.seed)
	sess, setup, err := setupLocal(spec, cfg.workers, localSetupReps)
	if err != nil {
		return nil, err
	}
	want, check, err := expectedDigest(ctx, cfg, spec)
	if err != nil {
		return nil, err
	}
	ms := newMetricSet()
	res := &result{Check: check}
	if !cfg.trace {
		ph := runLocalPhase(ctx, sess, spec, cfg.dur, nil, "run")
		rss, err := peakRSSMiB("self")
		if err != nil {
			return nil, err
		}
		checkDigests(ph, want)
		e2eMetrics(ms, ph, setup, rss)
		if err := res.fill(ph, ms, false); err != nil {
			return nil, err
		}
		return res, nil
	}

	start := time.Now()
	rec := newRecorder(start)
	untraced := runLocalPhase(ctx, sess, spec, cfg.dur/2, nil, "untraced")
	traced := runLocalPhase(ctx, sess, spec, cfg.dur/2, rec, "traced")
	checkDigests(untraced, want)
	checkDigests(traced, want)
	overheadMetrics(ms, untraced, traced)
	busy, pool := int64(0), int64(0)
	for _, s := range traced.samples {
		busy += s.busyNS
		pool += s.poolNS
	}
	ms.add("sim.pool_busy_frac", ratio(float64(busy), float64(pool)), "fraction")
	if err := commonProbes(cfg, traced.last, ms, rec); err != nil {
		return nil, err
	}
	if err := serviceProbe(ctx, cfg, spec, traced, ms, rec); err != nil {
		return nil, err
	}
	untraced.merge(traced)
	if err := res.fill(untraced, ms, true); err != nil {
		return nil, err
	}
	return res, res.writeSpans(cfg, rec)
}

const serviceProbeSweeps = 3

// serviceProbe measures the service layers for a local workload: its own
// spec, re-seeded, submitted as async sweeps to a fresh simd front door
// and worker, plus the wire probe against that worker. Every probe sweep
// is checked against an in-process reference.
func serviceProbe(ctx context.Context, cfg config, spec *sim.Spec, ph *phase, ms *metricSet, rec *recorder) error {
	client := newClient(cfg.workers)
	svc, err := startService(ctx, client, cfg.simd, cfg.workers)
	if err != nil {
		return err
	}
	defer svc.stop()
	probe := &phase{}
	for i := range serviceProbeSweeps {
		sp := *spec
		sp.Seeds = streamSeeds(cfg.seed, fmt.Sprintf("service-probe-%d", i), len(spec.Seeds))
		probe.attempted++
		smp, err := svc.runSweep(ctx, "probe", fmt.Sprintf("service-probe-%d", i), &sp, rec)
		if err == nil {
			_, err = smp.decode()
		}
		if err != nil {
			probe.fail(err)
			continue
		}
		want, err := referenceDigest(ctx, &sp, cfg.workers)
		if err != nil {
			return err
		}
		if smp.digest != want {
			probe.fail(fmt.Errorf("service probe report %s differs from reference %s", smp.digest[:12], want[:12]))
		}
		probe.samples = append(probe.samples, smp)
	}
	st, err := svc.stats(ctx)
	if err != nil {
		return err
	}
	cacheLayerMetrics(ms, st, nil)
	sweepLayerMetrics(ms, probe.samples)
	if err := probeWire(ctx, svc, wireTemplate(cfg.workload, cfg.seed), cfg.seed, ms, rec); err != nil {
		return err
	}
	ph.attempted += probe.attempted
	ph.failed += probe.failed
	ph.errs = append(ph.errs, probe.errs...)
	return nil
}

func runServiceWorkload(ctx context.Context, cfg config) (*result, error) {
	pool := servicePrograms(cfg.seed)
	plans := make([]tenantPlan, cfg.workers)
	for t := range plans {
		plans[t] = newTenantPlan(cfg.seed, t, pool)
	}
	next := make([]int, len(plans))
	client := newClient(cfg.workers)
	svc, setup, err := setupService(ctx, client, cfg.simd, cfg.workers, serviceSetupReps, warmupSpec(pool))
	if err != nil {
		return nil, err
	}
	defer svc.stop()
	base, err := svc.stats(ctx)
	if err != nil {
		return nil, err
	}
	ms := newMetricSet()
	res := &result{Check: "in-process sync Session.Run of each sweep's spec"}
	var rec *recorder
	var measured, untraced *phase
	if cfg.trace {
		rec = newRecorder(time.Now())
		untraced = svc.runTenants(ctx, plans, next, cfg.dur/2, nil)
		measured = svc.runTenants(ctx, plans, next, cfg.dur/2, rec)
	} else {
		measured = svc.runTenants(ctx, plans, next, cfg.dur, nil)
	}
	rss, err := svc.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	if untraced != nil {
		decodeSamples(untraced)
	}
	decodeSamples(measured)
	st, err := svc.stats(ctx)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		cacheLayerMetrics(ms, st, base)
		sweepLayerMetrics(ms, measured.samples)
		busy := int64(0)
		for _, s := range measured.samples {
			busy += s.busyNS
		}
		ms.add("sim.pool_busy_frac", ratio(float64(busy), float64(cfg.workers)*float64(measured.wall.Nanoseconds())), "fraction")
		if measured.last == nil {
			return nil, errors.New("no sweep completed")
		}
		if err := commonProbes(cfg, measured.last, ms, rec); err != nil {
			return nil, err
		}
		if err := probeWire(ctx, svc, wireTemplate(cfg.workload, cfg.seed), cfg.seed, ms, rec); err != nil {
			return nil, err
		}
	}
	svc.stop()

	if cfg.trace {
		verifyService(ctx, untraced, cfg.workers)
		verifyService(ctx, measured, cfg.workers)
		overheadMetrics(ms, untraced, measured)
		untraced.merge(measured)
		measured = untraced
	} else {
		verifyService(ctx, measured, cfg.workers)
		e2eMetrics(ms, measured, setup, rss)
	}
	if err := res.fill(measured, ms, cfg.trace); err != nil {
		return nil, err
	}
	if cfg.trace {
		return res, res.writeSpans(cfg, rec)
	}
	return res, nil
}

// commonProbes are the per-layer probes every traced run makes: the
// program layers on the fixed probe set, and the report codec and shard
// cache on the workload's own last report.
func commonProbes(cfg config, last *sim.Report, ms *metricSet, rec *recorder) error {
	if last == nil {
		return errors.New("no verified report to probe")
	}
	if err := probeLayers(cfg.seed, ms, rec); err != nil {
		return err
	}
	if err := probeReportCodec(last, ms, rec); err != nil {
		return err
	}
	tmp, err := tmpDir(cfg.root)
	if err != nil {
		return err
	}
	return probeShardCache(last, tmp, ms, rec)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// e2eMetrics sets every end-to-end metric from a measured phase.
func e2eMetrics(ms *metricSet, ph *phase, setup Percentile, rss float64) {
	lat := make([]float64, len(ph.samples))
	var insts int64
	for i, s := range ph.samples {
		lat[i] = seconds(s.latency)
		insts += s.insts
	}
	p50, p90 := percentile(lat, 50), percentile(lat, 90)
	wall := seconds(ph.wall)
	ms.set("setup_s", Metric{Value: setup.Value, Unit: "s", Note: fmt.Sprintf("median of %d set-ups", setup.N)})
	ms.set("throughput_minsts_s", Metric{Value: ratio(float64(insts), wall) / 1e6, Unit: "Minst/s",
		Note: fmt.Sprintf("%d insts in %.3f s", insts, wall)})
	ms.set("sweep_latency_p50_s", Metric{Value: p50.Value, Unit: "s", Note: fmt.Sprintf("n=%d", p50.N)})
	ms.set("sweep_latency_p90_s", Metric{Value: p90.Value, Unit: "s", Note: fmt.Sprintf("n=%d, %d beyond", p90.N, p90.Beyond)})
	ms.set("sweeps_per_s", Metric{Value: ratio(float64(len(ph.samples)), wall), Unit: "1/s",
		Note: fmt.Sprintf("%d sweeps in %.3f s", len(ph.samples), wall)})
	ms.set("peak_rss_mib", Metric{Value: rss, Unit: "MiB"})
}

// overheadOf are the end-to-end metrics whose tracing overhead a traced
// run reports.
var overheadOf = []string{"throughput_minsts_s", "sweep_latency_p50_s", "sweep_latency_p90_s", "sweeps_per_s"}

// overheadMetrics reports the tracing overhead: the traced phase's
// end-to-end figures minus the untraced phase's, same run, same set-up.
func overheadMetrics(ms *metricSet, untraced, traced *phase) {
	a, b := newMetricSet(), newMetricSet()
	e2eMetrics(a, untraced, Percentile{}, 0)
	e2eMetrics(b, traced, Percentile{}, 0)
	for _, n := range overheadOf {
		ms.set("tracing.overhead."+n, Metric{Value: b.byKey[n].Value - a.byKey[n].Value, Unit: a.byKey[n].Unit,
			Note: fmt.Sprintf("traced %.6g - untraced %.6g", b.byKey[n].Value, a.byKey[n].Value)})
	}
}

// cacheLayerMetrics reads the front door's cache and dispatcher counters,
// as deltas from base when given.
func cacheLayerMetrics(ms *metricSet, st, base *statsView) {
	hits, misses, hedges := st.Cache.Stats.Hits, st.Cache.Stats.Misses, st.Dispatch.Hedges
	if base != nil {
		hits -= base.Cache.Stats.Hits
		misses -= base.Cache.Stats.Misses
		hedges -= base.Dispatch.Hedges
	}
	ms.set("shardcache.hit_ratio", Metric{Value: ratio(float64(hits), float64(hits+misses)), Unit: "fraction",
		Note: fmt.Sprintf("%d hits, %d misses", hits, misses)})
	ms.add("dispatch.hedges", float64(hedges), "count")
}

// sweepLayerMetrics summarizes the coordinator and simd client-side
// figures of service sweeps.
func sweepLayerMetrics(ms *metricSet, samples []sweepSample) {
	var qw, run, fetch []float64
	polls := 0
	for _, s := range samples {
		qw = append(qw, millis(s.queueWait))
		run = append(run, millis(s.runTime))
		fetch = append(fetch, millis(s.fetch))
		polls += s.polls
	}
	for _, p := range []struct {
		name string
		xs   []float64
		p    float64
	}{
		{"sweep.queue_wait_ms.p50", qw, 50}, {"sweep.queue_wait_ms.p90", qw, 90},
		{"sweep.run_ms.p50", run, 50}, {"simd.result_fetch_ms.p50", fetch, 50},
	} {
		pc := percentile(p.xs, p.p)
		ms.set(p.name, Metric{Value: pc.Value, Unit: "ms", Note: fmt.Sprintf("n=%d, %d beyond", pc.N, pc.Beyond)})
	}
	ms.set("simd.polls_per_sweep", Metric{Value: ratio(float64(polls), float64(len(samples))), Unit: "count",
		Note: fmt.Sprintf("every %v", pollInterval)})
}

// fill completes a result from a measured phase and its metrics.
func (r *result) fill(ph *phase, ms *metricSet, traced bool) error {
	want := endToEnd
	if traced {
		want = layerMetricNames()
	}
	got, exp := slices.Clone(ms.names), slices.Clone(want)
	slices.Sort(got)
	slices.Sort(exp)
	if !slices.Equal(got, exp) {
		return fmt.Errorf("metric set mismatch: reported %v, want %v", got, exp)
	}
	r.Attempted, r.Failed, r.Errors = ph.attempted, ph.failed, ph.errs
	r.ErrorRate = ratio(float64(ph.failed), float64(ph.attempted))
	shards, cached := 0, 0
	for _, s := range ph.samples {
		shards += s.shards
		cached += s.cached
	}
	r.CacheHitShare = ratio(float64(cached), float64(shards))
	r.Metrics = make(map[string]Metric, len(ms.names))
	for _, n := range ms.names {
		mt := ms.byKey[n]
		if traced {
			mt.Moves, mt.Workload = layerTarget(n)
		}
		r.Metrics[n] = mt
	}
	r.order = ms.names
	return nil
}

func (r *result) writeSpans(cfg config, rec *recorder) error {
	r.SpansFile = filepath.Join(cfg.root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	return rec.write(r.SpansFile)
}

var endToEnd = []string{"setup_s", "throughput_minsts_s", "sweep_latency_p50_s", "sweep_latency_p90_s", "sweeps_per_s", "peak_rss_mib"}

// layerTarget names the end-to-end metric a per-layer metric should move
// and the workload where its layer does the most work.
func layerTarget(name string) (moves, workload string) {
	switch {
	case strings.HasPrefix(name, "workload.build_ms."), strings.HasPrefix(name, "trace.compile_ms."):
		return "setup_s", wlPredictorSynth
	case strings.HasPrefix(name, "bpred.grouped9."):
		return "throughput_minsts_s", wlPredictorSynth
	case strings.HasPrefix(name, "icache."):
		return "throughput_minsts_s", wlCharzGrid + "," + wlPredictorSynth
	case strings.HasPrefix(name, "trace."), strings.HasPrefix(name, "bpred."), strings.HasPrefix(name, "btb."),
		strings.HasPrefix(name, "analysis."), name == "sim.pool_busy_frac":
		return "throughput_minsts_s", wlCharzGrid
	case strings.HasPrefix(name, "sim.report_"), strings.HasPrefix(name, "shardcache."):
		return "sweep_latency_p50_s", wlSweepsService
	case strings.HasPrefix(name, "dispatch."):
		return "sweep_latency_p90_s", wlSweepsService
	case strings.HasPrefix(name, "sweep."), strings.HasPrefix(name, "simd."):
		return "sweep_latency_p90_s,sweeps_per_s", wlSweepsService
	case strings.HasPrefix(name, "tracing.overhead."):
		return strings.TrimPrefix(name, "tracing.overhead."), "all"
	}
	return "", ""
}

// emit prints the human-readable report, writes the full result file and
// prints the result line last.
func (r *result) emit(cfg config) error {
	r.Workload, r.Seed, r.Seconds, r.Traced, r.Workers = cfg.workload, cfg.seed, cfg.dur.Seconds(), cfg.trace, cfg.workers
	host, err := json.Marshal(r.Host)
	if err != nil {
		return err
	}
	fmt.Printf("host %s\n", host)
	fmt.Printf("workload %s seed %d seconds %d traced %v check: %s\n", r.Workload, r.Seed, int(r.Seconds), r.Traced, r.Check)
	for _, n := range r.order {
		m := r.Metrics[n]
		line := fmt.Sprintf("  %-48s %14.6g %-8s", n, m.Value, m.Unit)
		if m.Note != "" {
			line += "  " + m.Note
		}
		if m.Moves != "" {
			line += fmt.Sprintf("  [moves %s on %s]", m.Moves, m.Workload)
		}
		fmt.Println(line)
	}
	fmt.Printf("  %-48s %14.6g %-8s  %d failed of %d attempted\n", "error_rate", r.ErrorRate, "fraction", r.Failed, r.Attempted)
	fmt.Printf("  %-48s %14.6g %-8s  shards served from the result cache\n", "cache_hit_share", r.CacheHitShare, "fraction")
	fmt.Printf("  %-48s %14.6g %-8s  CPU time taken by the hypervisor during the run\n", "host_steal_frac", r.StealFrac, "fraction")
	for _, e := range r.Errors {
		fmt.Printf("  error: %s\n", e)
	}
	if r.SpansFile != "" {
		fmt.Printf("  spans: %s\n", r.SpansFile)
	}
	full, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	traceFlag := 0
	if cfg.trace {
		traceFlag = 1
	}
	out := filepath.Join(cfg.root, ".bench_build", "results", fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, traceFlag))
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, full, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.Failed == 0 && r.Attempted > 0,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   resultLineMetrics(r),
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func resultLineMetrics(r *result) map[string]map[string]any {
	out := make(map[string]map[string]any, len(r.Metrics))
	for n, m := range r.Metrics {
		out[n] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return out
}

// updateDigests recomputes the committed digests of the local workloads
// under the default seed and rewrites perfbench/digests.json.
func updateDigests(ctx context.Context, root string) error {
	f := digestFile{Seed: defaultSeed, Digests: map[string]string{}}
	for _, w := range []string{wlCharzGrid, wlPredictorSynth} {
		d, err := referenceDigest(ctx, localSpec(w, defaultSeed), runtime.NumCPU())
		if err != nil {
			return err
		}
		f.Digests[w] = d
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "perfbench", "digests.json"), append(data, '\n'), 0o644)
}
