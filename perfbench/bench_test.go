package main

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"testing"

	"rebalance/internal/sim"
	"rebalance/internal/wire"
)

func TestPercentileNearestRankWithCount(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct {
		p      float64
		value  float64
		beyond int
	}{
		{50, 5, 5}, {90, 9, 1}, {100, 10, 0}, {10, 1, 9}, {1, 1, 9},
	} {
		got := percentile(xs, tc.p)
		if got.Value != tc.value || got.N != len(xs) || got.Beyond != tc.beyond {
			t.Errorf("p%v = %+v, want value %v, n %d, beyond %d", tc.p, got, tc.value, len(xs), tc.beyond)
		}
	}
	if got := percentile(nil, 90); got.N != 0 || got.Value != 0 {
		t.Errorf("empty sample: %+v", got)
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

func TestMetricNameCharset(t *testing.T) {
	for _, ok := range []string{"setup_s", "bpred.L-tage-small.ns_per_inst.synth-large", "icache.16KB-64B-4w.ns_per_inst.comd-lite", "9lives"} {
		if !validMetricName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", "_lead", ".lead", "a/b", "sp ace", "bpred.tage+gshare", string(make([]byte, 65))} {
		if validMetricName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestEveryReportedNameValid(t *testing.T) {
	names := append(slices.Clone(endToEnd), layerMetricNames()...)
	seen := map[string]bool{}
	for _, n := range names {
		if !validMetricName(n) {
			t.Errorf("invalid metric name %q", n)
		}
		if seen[n] {
			t.Errorf("duplicate metric name %q", n)
		}
		seen[n] = true
	}
	if n := len(layerMetricNames()); n > 128 {
		t.Errorf("%d per-layer metrics, limit 128", n)
	}
	for _, n := range layerMetricNames() {
		if moves, wl := layerTarget(n); moves == "" || wl == "" {
			t.Errorf("per-layer metric %q names no end-to-end metric or workload", n)
		}
	}
}

// TestBenchmarkJSONMatchesCode pins the metric lists of BENCHMARK.json to
// the names the benchmark reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := wire.StrictUnmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	names := func(ms []metric) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		slices.Sort(out)
		return out
	}
	want := slices.Clone(endToEnd)
	slices.Sort(want)
	if got := names(b.EndToEnd); !slices.Equal(got, want) {
		t.Errorf("end_to_end %v, code reports %v", got, want)
	}
	want = layerMetricNames()
	slices.Sort(want)
	if got := names(b.PerLayer); !slices.Equal(got, want) {
		t.Errorf("per_layer %v, code reports %v", got, want)
	}
	var wls []string
	for _, w := range b.Workloads {
		wls = append(wls, w.Name)
	}
	if !slices.Equal(wls, workloadNames) {
		t.Errorf("workloads %v, code runs %v", wls, workloadNames)
	}
}

func tinyReport(t *testing.T) *sim.Report {
	t.Helper()
	rep, err := sim.NewSession(1).Run(context.Background(), &sim.Spec{
		Workloads: []string{"comd-lite"},
		Seeds:     []uint64{3, 4},
		Insts:     2000,
		Observers: []sim.ObserverSpec{{Kind: "branch-mix"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestNormalizerStripsOnlyTimingAndProvenance(t *testing.T) {
	rep := tinyReport(t)
	base, err := reportDigest(rep)
	if err != nil {
		t.Fatal(err)
	}
	before, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}

	moved := *rep
	moved.WallNS += 12345
	moved.Workers = 7
	moved.Shards = slices.Clone(rep.Shards)
	moved.Shards[0].ElapsedNS += 999
	moved.Shards[1].Cached = true
	if d, err := reportDigest(&moved); err != nil || d != base {
		t.Errorf("timing/provenance change moved the digest: %s vs %s (%v)", d, base, err)
	}

	changed := *rep
	changed.Shards = slices.Clone(rep.Shards)
	changed.Shards[1].Seed++
	if d, _ := reportDigest(&changed); d == base {
		t.Error("a changed shard seed kept the digest")
	}
	changed = *rep
	changed.TotalInsts++
	if d, _ := reportDigest(&changed); d == base {
		t.Error("a changed instruction total kept the digest")
	}

	after, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Error("normalizing mutated the report")
	}
}

func TestMemoRunnerMatchesDirectRun(t *testing.T) {
	spec := &sim.Spec{
		Workloads: []string{"xalan-lite"},
		Seeds:     []uint64{5, 6},
		Insts:     2000,
		Observers: []sim.ObserverSpec{{Kind: "bpred", Options: json.RawMessage(`{"configs":["gshare-small"]}`)}, {Kind: "bbl"}},
	}
	direct, err := referenceDigest(context.Background(), spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	sess := sim.NewSession(2)
	memo := newMemoRunner(2)
	sess.SetRunner(memo)
	for i := range 2 { // the second pass replays every shard from the memo
		rep, err := sess.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if d, _ := reportDigest(rep); d != direct {
			t.Errorf("pass %d: memoized reference %s, direct %s", i, d, direct)
		}
	}
	if len(memo.records) != 4 {
		t.Errorf("memo holds %d shards, want 4", len(memo.records))
	}
}

func TestInputsFollowSeed(t *testing.T) {
	a, _ := json.Marshal(predictorSynthSpec(1))
	b, _ := json.Marshal(predictorSynthSpec(1))
	c, _ := json.Marshal(predictorSynthSpec(2))
	if string(a) != string(b) || string(a) == string(c) {
		t.Error("predictor-synth inputs are not a function of the seed alone")
	}
	for _, spec := range []*sim.Spec{charzGridSpec(9), predictorSynthSpec(9), warmupSpec(servicePrograms(9))} {
		if err := spec.Validate(); err != nil {
			t.Errorf("generated spec invalid: %v", err)
		}
	}
}

func TestTenantPlansOverlapWithinAndNotAcross(t *testing.T) {
	pool := servicePrograms(3)
	p0, p1 := newTenantPlan(3, 0, pool), newTenantPlan(3, 1, pool)
	m := len(pool)
	for k := range 3 * m {
		a, b := p0.spec(k), p0.spec(k+m)
		if a.Workloads[0] != b.Workloads[0] {
			t.Fatalf("sweeps %d and %d run different programs", k, k+m)
		}
		if shared := countShared(a.Seeds, b.Seeds); shared != serviceWindow-1 {
			t.Errorf("sweeps %d and %d share %d seeds, want %d", k, k+m, shared, serviceWindow-1)
		}
		if err := a.Validate(); err != nil {
			t.Errorf("sweep %d invalid: %v", k, err)
		}
		for j := range 3 * m {
			if countShared(a.Seeds, p1.spec(j).Seeds) != 0 {
				t.Fatalf("tenants 0 and 1 share stream seeds (sweeps %d, %d)", k, j)
			}
		}
	}
}

func countShared(a, b []uint64) int {
	n := 0
	for _, x := range a {
		if slices.Contains(b, x) {
			n++
		}
	}
	return n
}
