package bpred

import (
	"strings"
	"testing"
)

// TestTableIICosts pins every registered configuration's storage cost to
// the paper's Table II: gshare costs 2^(m+1) bits, tournament costs
// 2^n(m+2) + 2^(m+2) bits, and each loop-overlay (L-*) configuration adds
// the 64-entry loop predictor (528 B) to its base.
func TestTableIICosts(t *testing.T) {
	gshare := func(m uint) int { return 1 << (m + 1) }
	tournament := func(n, m uint) int { return (1<<n)*(int(m)+2) + 1<<(m+2) }
	const loopBits = 528 * 8

	base := map[string]int{
		"gshare-small":     gshare(13),
		"gshare-big":       gshare(16),
		"tournament-small": tournament(10, 8),
		"tournament-big":   tournament(12, 14),
		"tage-small":       14848,
		"tage-big":         108544,
	}
	// The formulas evaluate to the paper's budgets: ~2KB small, ~16KB big.
	for name, want := range map[string]int{
		"gshare-small": 16384, "gshare-big": 131072,
		"tournament-small": 11264, "tournament-big": 131072,
	} {
		if base[name] != want {
			t.Errorf("Table II formula for %s = %d bits, want %d", name, base[name], want)
		}
	}
	if got := NewLoopPredictor().CostBits(); got != loopBits {
		t.Errorf("loop predictor = %d bits, want %d (528 B)", got, loopBits)
	}

	for _, name := range ConfigNames() {
		want, ok := base[name]
		if b, overlay := strings.CutPrefix(name, "L-"); overlay {
			want, ok = base[b]+loopBits, base[b] != 0
		}
		if !ok {
			t.Errorf("registered config %s has no Table II cost", name)
			continue
		}
		p, err := NewByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.CostBits(); got != want {
			t.Errorf("%s CostBits() = %d, want %d", name, got, want)
		}
	}
}
