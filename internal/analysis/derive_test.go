package analysis

import (
	"testing"

	"rebalance/internal/isa"
	"rebalance/internal/trace"
	"rebalance/internal/workload"
)

// TestArtifactRendersResultMethods pins the one-derivation rule on real
// streams: every derived field of each EncodeJSON artifact equals the
// matching Result method exactly (percentages as returned, footprints
// scaled bytes to KB), for every aggregation phase. Every registered
// workload runs: an equivalent but differently rounded formula in an
// artifact matches the method on some counts and not on others.
func TestArtifactRendersResultMethods(t *testing.T) {
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) { checkArtifactRendersResultMethods(t, name) })
	}
}

func checkArtifactRendersResultMethods(t *testing.T, name string) {
	prog := workload.MustBuild(name)
	mix, bias, fp, bbl := NewBranchMix(), NewBias(), NewFootprint(), NewBBL()
	if err := trace.Run(prog, 1, 200_000, mix, bias, fp, bbl); err != nil {
		t.Fatal(err)
	}
	mr, br, fr, lr := mix.Result(), bias.Result(), fp.Result(prog.TextSize), bbl.Result()

	var mw mixWire
	var bw biasWire
	var fw footprintWire
	var lw bblWire
	decodeArtifact(t, mr, &mw)
	decodeArtifact(t, br, &bw)
	decodeArtifact(t, fr, &fw)
	decodeArtifact(t, lr, &lw)

	check := func(field string, p Phase, got, want float64) {
		t.Helper()
		if got != want {
			t.Errorf("%s[%s] = %v, Result method gives %v", field, p, got, want)
		}
	}
	for pi, p := range Phases {
		if mr.PhaseInsts(p) == 0 || br.TakenPct(p) == 0 || lr.Blocks(p) == 0 || fr.TouchedBytes(p) == 0 {
			t.Fatalf("phase %s is empty; the stream does not exercise it", p)
		}
		check("insts", p, float64(mw.Insts[pi]), float64(mr.PhaseInsts(p)))
		check("branch_pct", p, mw.BranchPct[pi], mr.BranchPct(p))
		for k := 0; k < isa.NumKinds; k++ {
			kind := isa.Kind(k)
			check("kind_pct."+kind.String(), p, mw.KindPct[kind.String()][pi], mr.KindPct(p, kind))
		}

		buckets := br.BucketsPct(p)
		for b := range buckets {
			check("buckets_pct", p, bw.Buckets[pi][b], buckets[b])
		}
		check("biased_pct", p, bw.BiasedPct[pi], br.BiasedPct(p))
		check("backward_pct", p, bw.BackwardPct[pi], br.BackwardPct(p))
		check("forward_pct", p, bw.ForwardPct[pi], br.ForwardPct(p))
		check("taken_pct", p, bw.TakenPct[pi], br.TakenPct(p))

		check("blocks", p, float64(lw.Blocks[pi]), float64(lr.Blocks(p)))
		check("avg_block_bytes", p, lw.AvgBlockB[pi], lr.AvgBlockBytes(p))
		check("avg_taken_dist_bytes", p, lw.AvgTakenDistB[pi], lr.AvgTakenDistance(p))

		check("dyn99_kb", p, fw.Dyn99KB[pi], float64(fr.DynamicBytes(p, 0.99))/1024)
		check("touched_kb", p, fw.TouchedKB[pi], float64(fr.TouchedBytes(p))/1024)
	}
	if bw.Sites != len(br.Sites) {
		t.Errorf("sites = %d, want %d", bw.Sites, len(br.Sites))
	}
	if fw.StaticKB != float64(prog.TextSize)/1024 {
		t.Errorf("static_kb = %v, want %v", fw.StaticKB, float64(prog.TextSize)/1024)
	}
}
