// Package analysis implements the paper's architecture-independent
// characterization "pintools" (Section III): the dynamic branch-instruction
// mix (Figure 1), the conditional-branch direction-bias distribution
// (Figure 2) and backward/forward taken split (Table I), static and
// 99%-dynamic instruction footprints (Figure 3), and basic-block length and
// taken-branch distance (Figure 4).
//
// Each analyzer is a trace.Observer, so any subset can share a single pass
// over a workload's instruction stream. All analyzers separate serial from
// parallel code sections, the paper's distinguishing methodological choice.
//
// Analyzers only count. Every figure statistic is a method on the
// mergeable snapshot an analyzer's Result returns (MixResult, BiasResult,
// FootprintResult, BBLResult), and each snapshot's EncodeJSON renders the
// artifact from those methods, so each metric has exactly one formula.
package analysis

// Phase selects which code sections a metric aggregates over.
type Phase int

const (
	// Total aggregates over the whole stream.
	Total Phase = iota
	// Serial aggregates over sequential sections only.
	Serial
	// Parallel aggregates over parallel sections only.
	Parallel

	numPhases
)

// NumPhases is the number of aggregation phases.
const NumPhases = int(numPhases)

// String returns the phase name as used in the paper's figures.
func (p Phase) String() string {
	switch p {
	case Total:
		return "total"
	case Serial:
		return "serial"
	case Parallel:
		return "parallel"
	}
	return "phase?"
}

// Phases lists the aggregation phases in figure order.
var Phases = [NumPhases]Phase{Total, Serial, Parallel}

// phaseRange maps a Phase to the internal per-phase indices it spans
// (0 serial, 1 parallel).
func phaseRange(p Phase) []int {
	switch p {
	case Serial:
		return []int{0}
	case Parallel:
		return []int{1}
	default:
		return []int{0, 1}
	}
}

// pct returns num as a percentage of den, or 0 when den is 0.
func pct(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}
