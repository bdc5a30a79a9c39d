package main

import (
	"encoding/json"
	"fmt"

	"rebalance/internal/sim"
	"rebalance/internal/workload/synth"
)

// The benchmark's workloads. Every input is derived from the --seed
// argument: stream seeds, synth structural seeds, and the service's sweep
// sequence. The program under test receives only the generated specs.
const (
	wlCharzGrid      = "charz-grid"
	wlPredictorSynth = "predictor-synth"
	wlSweepsService  = "sweeps-service"
)

var workloadNames = []string{wlCharzGrid, wlPredictorSynth, wlSweepsService}

// Workload sizes. A charz-grid sweep is 72 shards of 500k instructions
// (about a quarter second on two cores), so a run of tens of seconds
// repeats it often enough for steady medians; predictor-synth is sized to
// the same order. Service sweeps are small: nine of their twelve shards
// are cache hits, pure per-shard fixed cost (queueing, dispatch, HTTP,
// JSON, cache). The three computed shards run 200k instructions; at 100k
// the run-to-run spread on a 2-vCPU host was about half as large again,
// because the closed loop magnifies hypervisor steal when per-shard
// compute is small beside the hops between processes.
const (
	charzSeeds       = 4
	charzInsts       = 500_000
	synthStreamSeeds = 2
	synthInsts       = 250_000
	serviceInsts     = 200_000
	serviceWindow    = 4     // seeds per service sweep; consecutive sweeps of a program slide by one
	servicePool      = 4     // synth programs shared by every tenant
	warmupInsts      = 1_000 // warm-up budget; differs from serviceInsts, so warm-up keys never collide with measured ones
	warmupSeed       = 7     // below every tenant's seed line
)

// splitmix64 is the seed-derivation mix: one well-spread 64-bit value per
// (seed, stream) pair.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// derive returns the i-th value of the named stream under seed.
func derive(seed uint64, stream string, i int) uint64 {
	h := seed
	for _, c := range []byte(stream) {
		h = splitmix64(h ^ uint64(c))
	}
	return splitmix64(h ^ uint64(i)<<32)
}

// streamSeeds returns n distinct, non-zero stream seeds below 2^31.
func streamSeeds(seed uint64, stream string, n int) []uint64 {
	out := make([]uint64, 0, n)
	seen := map[uint64]bool{}
	for i := 0; len(out) < n; i++ {
		s := derive(seed, stream, i)&(1<<31-1) | 1
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// charzObservers is the paper's mixed characterization set: nine
// configurations over five observer kinds, one shard each.
func charzObservers() []sim.ObserverSpec {
	return []sim.ObserverSpec{
		{Kind: "bpred", Options: json.RawMessage(`{"configs":["gshare-big","tournament-big","tage-big"]}`)},
		{Kind: "btb", Options: json.RawMessage(`{"geometries":[{"entries":512,"ways":4},{"entries":1024,"ways":8}]}`)},
		{Kind: "icache", Options: json.RawMessage(`{"geometries":[{"size_kb":16,"line_bytes":64,"ways":4},{"size_kb":32,"line_bytes":64,"ways":8}]}`)},
		{Kind: "branch-mix"},
		{Kind: "bbl"},
	}
}

func charzGridSpec(seed uint64) *sim.Spec {
	return &sim.Spec{
		Workloads: []string{"comd-lite", "xalan-lite"},
		Seeds:     streamSeeds(seed, "charz-stream", charzSeeds),
		Insts:     charzInsts,
		Observers: charzObservers(),
	}
}

// synthScenario is one predictor-synth program: a branch mix crossed with
// a footprint class below or above the modelled 16 KB / 32 KB I-caches.
type synthScenario struct {
	footprint string // "small" (about 5 KB of text) or "large" (about 60 KB)
	mix       string // "biased" or "noisy"
}

var synthScenarios = []synthScenario{
	{"small", "biased"}, {"small", "noisy"}, {"large", "biased"}, {"large", "noisy"},
}

func (sc synthScenario) params(seed uint64, i int) synth.Params {
	p := synth.Params{
		Name:       fmt.Sprintf("ps-%s-%s", sc.footprint, sc.mix),
		Seed:       derive(seed, "synth-structure", i),
		LoopDepth:  1,
		TripCounts: []int{10},
		HotFrac:    1,
	}
	switch sc.footprint {
	case "small":
		p.Funcs, p.BlockLen = 8, 8
	default:
		p.Funcs, p.BlockLen = 64, 16
	}
	switch sc.mix {
	case "biased":
		p.BiasedFrac, p.CorrelatedFrac, p.NoisyFrac = 0.9, 0.05, 0.05
	default:
		p.BiasedFrac, p.CorrelatedFrac, p.NoisyFrac = 0.4, 0.2, 0.4
	}
	return p
}

func predictorSynthSpec(seed uint64) *sim.Spec {
	spec := &sim.Spec{
		Seeds: streamSeeds(seed, "synth-stream", synthStreamSeeds),
		Insts: synthInsts,
		Observers: []sim.ObserverSpec{
			{Kind: "bpred", Options: json.RawMessage(`{"grouped":true,"parallel":true}`)},
			{Kind: "icache", Options: json.RawMessage(`{"geometries":[{"size_kb":16,"line_bytes":64,"ways":4},{"size_kb":32,"line_bytes":64,"ways":8}]}`)},
		},
	}
	for i, sc := range synthScenarios {
		p := sc.params(seed, i)
		spec.Synth = append(spec.Synth, p)
		spec.Workloads = append(spec.Workloads, p.Name)
	}
	return spec
}

// servicePrograms is the synth pool every service tenant draws from.
func servicePrograms(seed uint64) []synth.Params {
	out := make([]synth.Params, servicePool)
	for i := range out {
		biased := 0.8 - 0.1*float64(i)
		out[i] = synth.Params{
			Name:           fmt.Sprintf("pool-%d", i),
			Seed:           derive(seed, "pool-structure", i),
			Funcs:          6 + 4*i,
			BlockLen:       6 + 2*i,
			BiasedFrac:     biased,
			CorrelatedFrac: (1 - biased) / 2,
			NoisyFrac:      (1 - biased) / 2,
		}
	}
	return out
}

func serviceObservers() []sim.ObserverSpec {
	return []sim.ObserverSpec{
		{Kind: "bpred", Options: json.RawMessage(`{"configs":["gshare-small","tage-small"]}`)},
		{Kind: "btb", Options: json.RawMessage(`{"geometries":[{"entries":512,"ways":4}]}`)},
	}
}

// tenantPlan is one tenant's seeded sweep sequence. Sweep k runs pool
// program order[k mod M] over a window of serviceWindow consecutive stream
// seeds that starts at line + k/M: the next sweep of the same program
// shares all but one seed with this one, so each sweep after a tenant's
// first M is three quarters cache hits and one quarter fresh shards.
// Tenants' seed lines are disjoint, so hit shares do not depend on how
// tenants interleave.
type tenantPlan struct {
	pool  []synth.Params
	order []int
	line  uint64
}

func newTenantPlan(seed uint64, tenant int, pool []synth.Params) tenantPlan {
	order := make([]int, len(pool))
	for i := range order {
		order[i] = i
	}
	for i := len(order) - 1; i > 0; i-- { // Fisher-Yates under the seed
		j := int(derive(seed, fmt.Sprintf("tenant-order-%d", tenant), i) % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	line := uint64(tenant+1)<<40 + derive(seed, "tenant-line", tenant)&(1<<32-1)
	return tenantPlan{pool: pool, order: order, line: line}
}

func (tp tenantPlan) spec(k int) *sim.Spec {
	p := tp.pool[tp.order[k%len(tp.order)]]
	start := tp.line + uint64(k/len(tp.order))
	seeds := make([]uint64, serviceWindow)
	for i := range seeds {
		seeds[i] = start + uint64(i)
	}
	return &sim.Spec{
		Workloads: []string{p.Name},
		Synth:     []synth.Params{p},
		Seeds:     seeds,
		Insts:     serviceInsts,
		Observers: serviceObservers(),
	}
}

// warmupSpec compiles every pool program on the service with keys no
// measured sweep uses.
func warmupSpec(pool []synth.Params) *sim.Spec {
	spec := &sim.Spec{Seeds: []uint64{warmupSeed}, Insts: warmupInsts, Observers: serviceObservers()}
	for _, p := range pool {
		spec.Synth = append(spec.Synth, p)
		spec.Workloads = append(spec.Workloads, p.Name)
	}
	return spec
}

// wireTemplate is one shard of the workload as a single-config shard
// spec: the wire-overhead probe's unit of work. The probe replaces its
// stream seed.
func wireTemplate(workload string, seed uint64) sim.ShardSpec {
	switch workload {
	case wlCharzGrid:
		return sim.ShardSpec{Workload: "comd-lite", Insts: charzInsts,
			Observer: sim.ObserverSpec{Kind: "bpred", Options: json.RawMessage(`{"configs":["tage-big"]}`)}}
	case wlPredictorSynth:
		p := synthScenarios[0].params(seed, 0)
		return sim.ShardSpec{Workload: p.Name, Synth: &p, Insts: synthInsts,
			Observer: sim.ObserverSpec{Kind: "bpred", Options: json.RawMessage(`{"grouped":true,"parallel":true}`)}}
	default:
		p := servicePrograms(seed)[0]
		return sim.ShardSpec{Workload: p.Name, Synth: &p, Insts: serviceInsts,
			Observer: sim.ObserverSpec{Kind: "bpred", Options: json.RawMessage(`{"configs":["gshare-small"]}`)}}
	}
}
