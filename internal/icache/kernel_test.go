package icache

import (
	"fmt"
	"testing"

	"rebalance/internal/isa"
	"rebalance/internal/program"
	"rebalance/internal/trace"
	"rebalance/internal/workload"
	"rebalance/internal/workload/synth"
)

// kernelPrograms are the differential wall's programs: every registered
// workload plus a synth program below and one above the modelled cache
// sizes.
func kernelPrograms(t testing.TB) map[string]*program.Program {
	progs := map[string]*program.Program{}
	for _, name := range workload.Names() {
		p, err := workload.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		progs[name] = p
	}
	for _, p := range []synth.Params{
		{Name: "kernel-small", Funcs: 8, BlockLen: 8, LoopDepth: 1, TripCounts: []int{10}, HotFrac: 1},
		{Name: "kernel-large", Funcs: 64, BlockLen: 16, BiasedFrac: 0.4, CorrelatedFrac: 0.2, NoisyFrac: 0.4},
	} {
		prog, err := synth.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		progs[p.Name] = prog
	}
	return progs
}

type geometry struct{ size, line, ways int }

func (g geometry) String() string { return fmt.Sprintf("%dB-%dB-%dw", g.size, g.line, g.ways) }

// kernelGeometries crosses every supported line width with 1-8 ways, at a
// thrashing size and a roomier one.
func kernelGeometries() []geometry {
	var out []geometry
	for _, size := range []int{2 * 1024, 16 * 1024} {
		for line := 8; line <= 128; line *= 2 {
			for ways := 1; ways <= 8; ways *= 2 {
				out = append(out, geometry{size, line, ways})
			}
		}
	}
	return out
}

// TestKernelMatchesReference holds the shift/mask kernel to the
// division-based reference model on real executor streams: every
// geometry, driven through ObserveBatch at executor batch sizes 1, 7 and
// 4096 and through Observe, must produce the reference's Result exactly.
func TestKernelMatchesReference(t *testing.T) {
	const insts = 40_000
	geoms := kernelGeometries()
	for name, prog := range kernelPrograms(t) {
		c, err := trace.Compile(prog)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []uint64{1, 7} {
			refs := make([]*refCache, len(geoms))
			single := make([]*Cache, len(geoms))
			for bi, batch := range []int{1, 7, trace.BatchSize} {
				e := trace.NewCompiledExecutor(c, seed)
				e.SetBatchSize(batch)
				kernels := make([]*Cache, len(geoms))
				for i, g := range geoms {
					kernels[i] = New(g.size, g.line, g.ways)
					e.Attach(kernels[i])
					if bi == 0 {
						refs[i] = newRef(g.size, g.line, g.ways)
						single[i] = New(g.size, g.line, g.ways)
						e.Attach(refs[i], trace.ObserverFunc(single[i].Observe))
					}
				}
				if err := e.Run(insts); err != nil {
					t.Fatal(err)
				}
				for i, g := range geoms {
					if bi == 0 {
						refs[i].Finish()
						single[i].Finish()
						if got, want := single[i].Result(), refs[i].Result(); *got != *want {
							t.Errorf("%s seed %d %v Observe:\n got %+v\nwant %+v", name, seed, g, got, want)
						}
					}
					kernels[i].Finish()
					if got, want := kernels[i].Result(), refs[i].Result(); *got != *want {
						t.Errorf("%s seed %d %v ObserveBatch (batch %d):\n got %+v\nwant %+v", name, seed, g, batch, got, want)
					}
				}
			}
		}
	}
}

// fuzzStream decodes arbitrary bytes into a geometry, an instruction
// stream and batch cut points. The first byte picks the line width, ways
// and a small set count (so lines are evicted often); every following
// 4-byte group is one instruction: size 1-15, phase, kind and outcome,
// and where it sits relative to the previous one — sequential, a small
// signed step (often the same line, or overlapping), or a far jump that
// can land near the top of the address space.
func fuzzStream(data []byte) (g geometry, stream []isa.Inst, cuts []bool) {
	if len(data) == 0 {
		return geometry{}, nil, nil
	}
	b := int(data[0])
	g.line = 8 << (b % 5)
	g.ways = 1 << (b / 5 % 4)
	g.size = (1 << (b / 20 % 4)) * g.ways * g.line
	var pc uint64
	for data = data[1:]; len(data) >= 4; data = data[4:] {
		a, m, x, y := data[0], data[1], data[2], data[3]
		in := isa.Inst{Size: 1 + a&0x0f%15, Serial: a&0x10 != 0}
		switch a >> 5 {
		case 3:
			in.Taken = true // meaningless on a non-branch; must not redirect
		case 4:
			in.Kind = isa.KindCondDirect
		case 5:
			in.Kind, in.Taken = isa.KindCondDirect, true
		case 6:
			in.Kind, in.Taken = isa.KindCall, true
		case 7:
			in.Kind, in.Taken = isa.KindReturn, true
		}
		switch m % 4 {
		case 2:
			pc += uint64(int64(int8(x)))
		case 3:
			if x == 0xff {
				pc = ^uint64(0) - uint64(y%16)
			} else {
				pc = uint64(x)<<40 | uint64(y)<<8 | uint64(m)
			}
		}
		in.PC = isa.Addr(pc)
		in.Target = isa.Addr(pc + uint64(y))
		stream = append(stream, in)
		cuts = append(cuts, y&1 != 0)
		pc += uint64(in.Size)
		if in.Taken && in.Kind.IsBranch() && m%4 < 2 {
			pc = uint64(in.Target) // taken; y small keeps the target in or near the line
		}
	}
	return g, stream, cuts
}

// FuzzKernelMatchesReference drives the kernel and the reference model
// with arbitrary streams: non-contiguous PCs, sizes 1-15, instructions
// straddling one or two line boundaries (8B lines), taken branches into
// the same line, address wrap-around, and arbitrary batch boundaries.
// Results must match after every batch and after Finish.
func FuzzKernelMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0x03, 0, 0, 0, 0x0e, 0, 0, 1, 0xa3, 0, 0, 2, 0x0f, 1, 0, 0})
	f.Add([]byte{79, 0x1f, 3, 0xff, 7, 0xe4, 0, 0, 0, 0x6f, 2, 0xfc, 1, 0x0f, 3, 0x10, 0x41})
	f.Add([]byte{24, 0xaf, 0, 0, 4, 0xbf, 0, 0, 3, 0xcf, 2, 0x01, 0, 0x0b, 3, 0x20, 0x30})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, stream, cuts := fuzzStream(data)
		if len(stream) == 0 {
			return
		}
		if err := GeometryError(g.size, g.line, g.ways); err != nil {
			t.Fatalf("fuzz geometry %v invalid: %v", g, err)
		}
		ref := newRef(g.size, g.line, g.ways)
		batched := New(g.size, g.line, g.ways)
		single := New(g.size, g.line, g.ways)
		start := 0
		for i, in := range stream {
			ref.Observe(in)
			single.Observe(in)
			if !cuts[i] && i != len(stream)-1 {
				continue
			}
			batched.ObserveBatch(stream[start : i+1])
			start = i + 1
			want := ref.Result()
			if got := batched.Result(); *got != *want {
				t.Fatalf("%v after %d insts, ObserveBatch:\n got %+v\nwant %+v", g, i+1, got, want)
			}
			if got := single.Result(); *got != *want {
				t.Fatalf("%v after %d insts, Observe:\n got %+v\nwant %+v", g, i+1, got, want)
			}
		}
		ref.Finish()
		batched.Finish()
		single.Finish()
		want := ref.Result()
		if got := batched.Result(); *got != *want {
			t.Fatalf("%v after Finish, ObserveBatch:\n got %+v\nwant %+v", g, got, want)
		}
		if got := single.Result(); *got != *want {
			t.Fatalf("%v after Finish, Observe:\n got %+v\nwant %+v", g, got, want)
		}
	})
}
