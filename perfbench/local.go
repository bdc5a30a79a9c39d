package main

import (
	"context"
	"fmt"
	"time"

	"rebalance/internal/sim"
)

// sweepSample is one completed request. For the local workloads a sweep
// is one Session.Run call; for sweeps-service it is one
// submit -> poll -> fetch round trip through simd.
type sweepSample struct {
	latency time.Duration
	done    time.Time // completion, for per-window statistics
	insts   int64
	shards  int
	cached  int
	digest  string
	spec    *sim.Spec // kept for service verification
	body    []byte    // service: fetched result, decoded after the window

	// busyNS sums elapsed_ns over the shards this sweep computed;
	// poolNS is the pool capacity it held (workers x wall_ns, local only).
	busyNS, poolNS int64

	// Service only: coordinator queue wait and run time from the sweep's
	// own timestamps, the result fetch, and the number of status polls.
	queueWait, runTime, fetch time.Duration
	polls                     int
}

// phase is one measured window of a workload.
type phase struct {
	samples   []sweepSample
	attempted int
	failed    int
	errs      []string
	wall      time.Duration
	start     time.Time
	last      *sim.Report // last report, input to the report-codec and shard-cache probes
}

func (ph *phase) fail(err error) {
	ph.failed++
	if len(ph.errs) < 5 {
		ph.errs = append(ph.errs, err.Error())
	}
}

// merge folds other into ph (the traced phase after the untraced one).
func (ph *phase) merge(other *phase) {
	ph.samples = append(ph.samples, other.samples...)
	ph.attempted += other.attempted
	ph.failed += other.failed
	for _, e := range other.errs {
		if len(ph.errs) < 5 {
			ph.errs = append(ph.errs, e)
		}
	}
	ph.wall += other.wall
	if other.last != nil {
		ph.last = other.last
	}
}

// compileSpec builds and compiles every program of spec into sess.
func compileSpec(sess *sim.Session, spec *sim.Spec) error {
	synthByName := map[string]int{}
	for i := range spec.Synth {
		synthByName[spec.Synth[i].Name] = i
	}
	for _, w := range spec.Workloads {
		var err error
		if i, ok := synthByName[w]; ok {
			_, err = sess.CompiledSynth(&spec.Synth[i])
		} else {
			_, err = sess.Compiled(w)
		}
		if err != nil {
			return fmt.Errorf("compiling %s: %w", w, err)
		}
	}
	return nil
}

// setupLocal measures the local workloads' set-up: a fresh session that
// builds and compiles every program of the spec. It repeats the set-up
// reps times and returns the last session with the median time.
func setupLocal(spec *sim.Spec, workers, reps int) (*sim.Session, Percentile, error) {
	var sess *sim.Session
	times := make([]float64, 0, reps)
	for range reps {
		start := time.Now()
		sess = sim.NewSession(workers)
		if err := compileSpec(sess, spec); err != nil {
			return nil, Percentile{}, err
		}
		times = append(times, seconds(time.Since(start)))
	}
	return sess, percentile(times, 50), nil
}

// runLocalPhase runs spec through Session.Run back to back until dur has
// passed, digesting each report outside its timed call. With a recorder
// it records a span per sweep, per Session.Run, per shard (through the
// public shard-done hook) and per digest.
func runLocalPhase(ctx context.Context, sess *sim.Session, spec *sim.Spec, dur time.Duration, rec *recorder, tag string) *phase {
	ph := &phase{start: time.Now()}
	deadline := ph.start.Add(dur)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		if ctx.Err() != nil {
			ph.fail(ctx.Err())
			break
		}
		trace := fmt.Sprintf("%s-%d", tag, i)
		root := rec.reserve(trace, "sweep")
		runID := rec.reserve(trace, "sim.Session.Run")
		rctx := ctx
		if rec != nil {
			rctx = sim.WithShardDone(ctx, func(sh sim.Shard, err error) {
				end := time.Now()
				rec.add(trace, "shard "+sh.Workload+" "+sh.Observer, runID, end.Add(-time.Duration(sh.ElapsedNS)), end)
			})
		}
		ph.attempted++
		t0 := time.Now()
		rep, err := sess.Run(rctx, spec)
		t1 := time.Now()
		rec.fill(runID, t0, t1)
		if err != nil {
			ph.fail(err)
			continue
		}
		var d string
		rec.timed(trace, "verify.digest", root, func() { d, err = reportDigest(rep) })
		rec.fill(root, t0, time.Now())
		if err != nil {
			ph.fail(err)
			continue
		}
		s := sweepSample{latency: t1.Sub(t0), done: t1, insts: rep.TotalInsts, shards: len(rep.Shards), digest: d,
			poolNS: int64(rep.Workers) * rep.WallNS}
		for _, sh := range rep.Shards {
			s.busyNS += sh.ElapsedNS
		}
		ph.samples = append(ph.samples, s)
		ph.wall += s.latency
		ph.last = rep
	}
	return ph
}

// checkDigests counts every sample whose digest differs from want.
func checkDigests(ph *phase, want string) {
	for _, s := range ph.samples {
		if s.digest != want {
			ph.fail(fmt.Errorf("report digest %s, want %s", s.digest[:12], want[:min(12, len(want))]))
		}
	}
}
