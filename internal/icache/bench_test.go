package icache

import (
	"fmt"
	"testing"

	"rebalance/internal/isa"
	"rebalance/internal/trace"
	"rebalance/internal/workload"
)

// capture records a stream batch by batch, so replaying it keeps the
// executor's batch boundaries.
type capture struct{ batches [][]isa.Inst }

func (c *capture) Observe(in isa.Inst) { c.batches = append(c.batches, []isa.Inst{in}) }
func (c *capture) ObserveBatch(b []isa.Inst) {
	c.batches = append(c.batches, append([]isa.Inst(nil), b...))
}

// captureStream records 300k instructions of a workload's seed-1 stream.
func captureStream(b *testing.B, name string) (batches [][]isa.Inst, insts int64) {
	prog, err := workload.Build(name)
	if err != nil {
		b.Fatal(err)
	}
	c := &capture{}
	e := trace.NewExecutor(prog, 1)
	e.Attach(c)
	if err := e.Run(300_000); err != nil {
		b.Fatal(err)
	}
	return c.batches, e.Emitted()
}

// BenchmarkICacheObserveBatch reports the kernel's ns/inst, Finish
// included, on captured comd-lite and xalan-lite streams at the two
// perfbench probe geometries.
func BenchmarkICacheObserveBatch(b *testing.B) {
	for _, name := range []string{"comd-lite", "xalan-lite"} {
		batches, insts := captureStream(b, name)
		for _, g := range []struct{ kb, ways int }{{16, 4}, {32, 8}} {
			b.Run(fmt.Sprintf("%s/%dKB-64B-%dw", name, g.kb, g.ways), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c := New(g.kb*1024, 64, g.ways)
					for _, batch := range batches {
						c.ObserveBatch(batch)
					}
					c.Finish()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*insts), "ns/inst")
			})
		}
	}
}
