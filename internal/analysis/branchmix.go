package analysis

import (
	"encoding/json"
	"fmt"

	"rebalance/internal/isa"
	"rebalance/internal/wire"
)

// BranchMix reproduces the Figure 1 pintool: it counts every dynamic
// instruction and classifies the control-flow instructions by kind, split
// by serial/parallel code section.
type BranchMix struct {
	// insts[phase] is the dynamic instruction count per phase
	// (phase index: 0 serial, 1 parallel).
	insts [2]int64
	// kinds[phase][kind] is the dynamic count of each branch kind; the
	// KindOther count is insts minus the branches, filled in by Result.
	kinds [2][isa.NumKinds]int64
}

// NewBranchMix returns a fresh branch-mix analyzer.
func NewBranchMix() *BranchMix { return &BranchMix{} }

func phaseIdx(serial bool) int {
	if serial {
		return 0
	}
	return 1
}

// Observe implements trace.Observer through the batch path.
func (a *BranchMix) Observe(in isa.Inst) {
	batch := [1]isa.Inst{in}
	a.ObserveBatch(batch[:])
}

// ObserveBatch implements trace.BatchObserver. Instructions are counted
// in a batch-local counter; only branches touch the kind table.
func (a *BranchMix) ObserveBatch(batch []isa.Inst) {
	var serial int64
	for i := range batch {
		in := &batch[i]
		p := 1
		if in.Serial {
			p = 0
			serial++
		}
		if in.Kind.IsBranch() {
			a.kinds[p][in.Kind]++
		}
	}
	a.insts[0] += serial
	a.insts[1] += int64(len(batch)) - serial
}

// MixResult is the mergeable counter snapshot of a BranchMix: dynamic
// instruction and per-kind counts per phase (0 serial, 1 parallel). Its
// methods derive the Figure 1 statistics. It implements the sim result
// contract (Merge, EncodeJSON).
type MixResult struct {
	Insts [2]int64
	Kinds [2][isa.NumKinds]int64
}

// Result snapshots the analyzer's counters.
func (a *BranchMix) Result() *MixResult {
	r := &MixResult{Insts: a.insts, Kinds: a.kinds}
	for p := range r.Kinds {
		r.Kinds[p][isa.KindOther] = r.Insts[p]
		for k, n := range r.Kinds[p] {
			if isa.Kind(k).IsBranch() {
				r.Kinds[p][isa.KindOther] -= n
			}
		}
	}
	return r
}

// Merge folds another *MixResult's counters into r.
func (r *MixResult) Merge(other any) error {
	o, ok := other.(*MixResult)
	if !ok {
		return fmt.Errorf("analysis: cannot merge %T into *analysis.MixResult", other)
	}
	for p := 0; p < 2; p++ {
		r.Insts[p] += o.Insts[p]
		for k := 0; k < isa.NumKinds; k++ {
			r.Kinds[p][k] += o.Kinds[p][k]
		}
	}
	return nil
}

// PhaseInsts returns the dynamic instruction count for the phase.
func (r *MixResult) PhaseInsts(p Phase) int64 {
	var n int64
	for _, i := range phaseRange(p) {
		n += r.Insts[i]
	}
	return n
}

// Count returns the dynamic count of the kind in the phase.
func (r *MixResult) Count(p Phase, k isa.Kind) int64 {
	var n int64
	for _, i := range phaseRange(p) {
		n += r.Kinds[i][k]
	}
	return n
}

// KindPct returns the kind's percentage share of all dynamic instructions
// in the phase, the axis of Figure 1.
func (r *MixResult) KindPct(p Phase, k isa.Kind) float64 {
	return pct(r.Count(p, k), r.PhaseInsts(p))
}

// BranchPct returns the percentage of all dynamic instructions that are
// control-flow instructions of any kind (the bar heights of Figure 1).
func (r *MixResult) BranchPct(p Phase) float64 {
	var b int64
	for k := 0; k < isa.NumKinds; k++ {
		if isa.Kind(k).IsBranch() {
			b += r.Count(p, isa.Kind(k))
		}
	}
	return pct(b, r.PhaseInsts(p))
}

// IndirectPct returns indirect jumps and calls as a percentage of all
// branch instructions (the paper reports <0.5% on average, up to 2.5% for
// CoEVP).
func (r *MixResult) IndirectPct(p Phase) float64 {
	var b, ind int64
	for k := 0; k < isa.NumKinds; k++ {
		kind := isa.Kind(k)
		if !kind.IsBranch() {
			continue
		}
		c := r.Count(p, kind)
		b += c
		if kind == isa.KindIndirectBranch || kind == isa.KindIndirectCall {
			ind += c
		}
	}
	return pct(ind, b)
}

// mixWire is the canonical JSON shape of a MixResult: the Figure 1
// artifact (derived percentages per aggregation phase) plus the raw
// per-phase counters the derivation and merging work from, so
// DecodeMixResult rebuilds an identical result from the counters alone.
type mixWire struct {
	Insts     [NumPhases]int64              `json:"insts"`
	BranchPct [NumPhases]float64            `json:"branch_pct"`
	KindPct   map[string][NumPhases]float64 `json:"kind_pct"`
	Counters  mixCounters                   `json:"counters"`
}

// mixCounters are the raw [serial, parallel] counters behind the artifact.
type mixCounters struct {
	Insts [2]int64               `json:"insts"`
	Kinds [2][isa.NumKinds]int64 `json:"kinds"`
}

// EncodeJSON renders the Figure 1 artifact: per aggregation phase (total,
// serial, parallel), the dynamic instruction count, each kind's percentage
// share, and the total branch percentage, plus the raw counters remote
// coordinators decode and merge.
func (r *MixResult) EncodeJSON() ([]byte, error) {
	var out mixWire
	out.Counters = mixCounters{Insts: r.Insts, Kinds: r.Kinds}
	out.KindPct = make(map[string][NumPhases]float64, isa.NumKinds)
	for pi, p := range Phases {
		out.Insts[pi] = r.PhaseInsts(p)
		if out.Insts[pi] == 0 {
			continue
		}
		for k := 0; k < isa.NumKinds; k++ {
			name := isa.Kind(k).String()
			pcts := out.KindPct[name]
			pcts[pi] = r.KindPct(p, isa.Kind(k))
			out.KindPct[name] = pcts
		}
		out.BranchPct[pi] = r.BranchPct(p)
	}
	return json.Marshal(&out)
}

// DecodeMixResult parses a MixResult from its canonical JSON artifact.
// Unknown fields are rejected; derived percentages are recomputed from the
// raw counters on re-encode.
func DecodeMixResult(data []byte) (*MixResult, error) {
	var w mixWire
	if err := wire.StrictUnmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("analysis: decoding mix result: %w", err)
	}
	return &MixResult{Insts: w.Counters.Insts, Kinds: w.Counters.Kinds}, nil
}
