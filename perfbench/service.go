package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"rebalance/internal/sim"
	"rebalance/internal/sim/dispatch"
	"rebalance/internal/sim/shardcache"
	"rebalance/internal/sim/sweep"
	"rebalance/internal/wire"
)

const (
	pollInterval   = 2 * time.Millisecond // fixed status-poll period of every tenant
	sweepTimeout   = 60 * time.Second     // a sweep still unfinished after this counts as failed
	maxRespBytes   = 64 << 20
	startupTimeout = 30 * time.Second
	stopTimeout    = 15 * time.Second
)

// simdProc is one running simd process on a loopback port it chose.
type simdProc struct {
	cmd  *exec.Cmd
	addr string // base URL
	done chan error
}

// logWatch collects a simd process's log and reports the address from its
// "listening on" line.
type logWatch struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

func (l *logWatch) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.buf.Len() < 1<<20 {
		l.buf.Write(p)
	}
	if !l.sent {
		for _, line := range strings.Split(l.buf.String(), "\n") {
			_, rest, ok := strings.Cut(line, " listening on ")
			if addr, _, ok2 := strings.Cut(rest, " "); ok && ok2 {
				l.addr <- addr
				l.sent = true
				break
			}
		}
	}
	return len(p), nil
}

func (l *logWatch) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// startSimd starts bin on an ephemeral loopback port and waits until it
// answers /healthz.
func startSimd(ctx context.Context, client *http.Client, bin string, args ...string) (*simdProc, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	lw := &logWatch{addr: make(chan string, 1)}
	cmd.Stderr = lw
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting simd: %w", err)
	}
	p := &simdProc{cmd: cmd, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()
	timer := time.NewTimer(startupTimeout)
	defer timer.Stop()
	select {
	case addr := <-lw.addr:
		p.addr = "http://" + addr
	case err := <-p.done:
		return nil, fmt.Errorf("simd exited before listening (%v): %s", err, lw.String())
	case <-timer.C:
		p.stop()
		return nil, fmt.Errorf("simd did not listen within %v", startupTimeout)
	case <-ctx.Done():
		p.stop()
		return nil, ctx.Err()
	}
	for {
		status, _, err := httpDo(ctx, client, http.MethodGet, p.addr+"/healthz", nil)
		if err == nil && status == http.StatusOK {
			return p, nil
		}
		select {
		case <-timer.C:
			p.stop()
			return nil, fmt.Errorf("simd at %s not healthy within %v (last: %d %v)", p.addr, startupTimeout, status, err)
		case <-ctx.Done():
			p.stop()
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// stop sends SIGTERM (simd drains and exits) and waits for the process,
// killing it if the drain overruns.
func (p *simdProc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(stopTimeout):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

func (p *simdProc) peakRSSMiB() (float64, error) {
	return peakRSSMiB(strconv.Itoa(p.cmd.Process.Pid))
}

// service is a front door dispatching to one worker, as the default
// configuration of simd runs them.
type service struct {
	client   *http.Client
	front    *simdProc
	worker   *simdProc
	stopOnce sync.Once
}

func startService(ctx context.Context, client *http.Client, bin string, workers int) (*service, error) {
	w := strconv.Itoa(workers)
	worker, err := startSimd(ctx, client, bin, "-worker", "-workers", w)
	if err != nil {
		return nil, err
	}
	front, err := startSimd(ctx, client, bin, "-workers", w, "-backends", worker.addr)
	if err != nil {
		worker.stop()
		return nil, err
	}
	return &service{client: client, front: front, worker: worker}, nil
}

// stop stops both processes and waits for them; later calls do nothing.
func (s *service) stop() {
	s.stopOnce.Do(func() {
		s.front.stop()
		s.worker.stop()
	})
}

func (s *service) peakRSSMiB() (float64, error) {
	a, err := s.front.peakRSSMiB()
	if err != nil {
		return 0, err
	}
	b, err := s.worker.peakRSSMiB()
	return a + b, err
}

// newClient is the load generator's one HTTP client: at most conns
// connections per host, so the client never opens more sockets than the
// host has cores.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     90 * time.Second,
	}}
}

func httpDo(ctx context.Context, client *http.Client, method, u string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxRespBytes))
	return resp.StatusCode, data, err
}

// sweepView is the body of GET /v1/sweeps/{id}.
type sweepView struct {
	sweep.Status
	ShardsSoFar json.RawMessage `json:"shards_so_far"`
}

// runSweep submits spec as tenant, polls its status every pollInterval
// until it is terminal and fetches the result. The sample's latency runs
// from the submit until the result body is read; decoding waits until
// after the measured window, so the load generator spends as little CPU
// as it can beside the service.
func (s *service) runSweep(ctx context.Context, tenant, trace string, spec *sim.Spec, rec *recorder) (sweepSample, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return sweepSample{}, fmt.Errorf("encoding spec: %w", err)
	}
	root := rec.reserve(trace, "sweep")
	t0 := time.Now()
	var status int
	var data []byte
	rec.timed(trace, "http.submit", root, func() {
		status, data, err = httpDo(ctx, s.client, http.MethodPost, s.front.addr+"/v1/sweeps?tenant="+url.QueryEscape(tenant), body)
	})
	if err != nil {
		return sweepSample{}, fmt.Errorf("submitting: %w", err)
	}
	if status != http.StatusAccepted {
		return sweepSample{}, fmt.Errorf("submitting: status %d: %s", status, bytes.TrimSpace(data))
	}
	var st sweep.Status
	if err := wire.StrictUnmarshal(data, &st); err != nil || st.ID == "" {
		return sweepSample{}, fmt.Errorf("submit response is not a sweep status: %v", err)
	}
	polls := 0
	statusURL := s.front.addr + "/v1/sweeps/" + url.PathEscape(st.ID)
	for {
		if time.Since(t0) > sweepTimeout {
			return sweepSample{}, fmt.Errorf("sweep %s not finished after %v", st.ID, sweepTimeout)
		}
		polls++
		rec.timed(trace, "http.poll", root, func() {
			status, data, err = httpDo(ctx, s.client, http.MethodGet, statusURL, nil)
		})
		if err != nil {
			return sweepSample{}, fmt.Errorf("polling %s: %w", st.ID, err)
		}
		if status != http.StatusOK {
			return sweepSample{}, fmt.Errorf("polling %s: status %d: %s", st.ID, status, bytes.TrimSpace(data))
		}
		var v sweepView
		if err := wire.StrictUnmarshal(data, &v); err != nil {
			return sweepSample{}, fmt.Errorf("decoding status of %s: %w", st.ID, err)
		}
		st = v.Status
		if st.State.Terminal() {
			break
		}
		select {
		case <-ctx.Done():
			return sweepSample{}, ctx.Err()
		case <-time.After(pollInterval):
		}
	}
	if st.State != sweep.StateDone {
		return sweepSample{}, fmt.Errorf("sweep %s ended %s: %s", st.ID, st.State, st.Error)
	}
	f0 := time.Now()
	rec.timed(trace, "http.result", root, func() {
		status, data, err = httpDo(ctx, s.client, http.MethodGet, statusURL+"/result", nil)
	})
	t1 := time.Now()
	rec.fill(root, t0, t1)
	if err != nil {
		return sweepSample{}, fmt.Errorf("fetching %s: %w", st.ID, err)
	}
	if status != http.StatusOK {
		return sweepSample{}, fmt.Errorf("fetching %s: status %d: %s", st.ID, status, bytes.TrimSpace(data))
	}
	if st.StartedAt == nil || st.FinishedAt == nil {
		return sweepSample{}, fmt.Errorf("sweep %s is done without start/finish timestamps", st.ID)
	}
	rec.add(trace, "sweep.queue", root, st.SubmittedAt, *st.StartedAt)
	rec.add(trace, "sweep.run", root, *st.StartedAt, *st.FinishedAt)

	return sweepSample{
		latency:   t1.Sub(t0),
		done:      t1,
		spec:      spec,
		body:      data,
		queueWait: st.StartedAt.Sub(st.SubmittedAt),
		runTime:   st.FinishedAt.Sub(*st.StartedAt),
		fetch:     t1.Sub(f0),
		polls:     polls,
	}, nil
}

// decode parses a fetched result body after the measured window, fills
// the sample's work and cache counts and digest, and drops the body.
func (smp *sweepSample) decode() (*sim.Report, error) {
	rep, err := sim.DecodeReport(smp.body)
	if err != nil {
		return nil, fmt.Errorf("decoding result: %w", err)
	}
	smp.body = nil
	smp.insts, smp.shards = rep.TotalInsts, len(rep.Shards)
	for _, sh := range rep.Shards {
		if sh.Cached {
			smp.cached++
		} else {
			smp.busyNS += sh.ElapsedNS
		}
	}
	smp.digest, err = reportDigest(rep)
	return rep, err
}

// decodeSamples decodes every fetched result of ph; a result that does
// not decode is a failed sweep.
func decodeSamples(ph *phase) {
	kept := ph.samples[:0]
	for _, smp := range ph.samples {
		rep, err := smp.decode()
		if err != nil {
			ph.fail(err)
			continue
		}
		kept = append(kept, smp)
		ph.last = rep
	}
	ph.samples = kept
}

// runTenants drives one closed-loop client goroutine per tenant until dur
// has passed; each tenant submits its next sweep only after the previous
// one's result arrived. next[t] is tenant t's position in its sequence
// and is advanced in place, so a later phase continues the sequences.
func (s *service) runTenants(ctx context.Context, plans []tenantPlan, next []int, dur time.Duration, rec *recorder) *phase {
	start := time.Now()
	deadline := start.Add(dur)
	phases := make([]*phase, len(plans))
	var wg sync.WaitGroup
	for t := range plans {
		phases[t] = &phase{}
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			ph := phases[t]
			tenant := fmt.Sprintf("tenant-%d", t)
			for ; time.Now().Before(deadline) && ctx.Err() == nil; next[t]++ {
				ph.attempted++
				smp, err := s.runSweep(ctx, tenant, fmt.Sprintf("%s-%d", tenant, next[t]), plans[t].spec(next[t]), rec)
				if err != nil {
					ph.fail(err)
					continue
				}
				ph.samples = append(ph.samples, smp)
			}
		}(t)
	}
	wg.Wait()
	out := &phase{start: start}
	for _, ph := range phases {
		out.merge(ph)
	}
	out.wall = time.Since(start)
	return out
}

// statsView is the body of GET /v1/stats on a front door.
type statsView struct {
	Cache struct {
		Enabled bool             `json:"enabled"`
		Stats   shardcache.Stats `json:"stats"`
	} `json:"cache"`
	Traces   json.RawMessage `json:"traces"`
	Dispatch *dispatch.Stats `json:"dispatch"`
	Sweeps   json.RawMessage `json:"sweeps"`
}

func (s *service) stats(ctx context.Context) (*statsView, error) {
	status, data, err := httpDo(ctx, s.client, http.MethodGet, s.front.addr+"/v1/stats", nil)
	if err != nil {
		return nil, fmt.Errorf("reading /v1/stats: %w", err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("reading /v1/stats: status %d", status)
	}
	var v statsView
	if err := wire.StrictUnmarshal(data, &v); err != nil {
		return nil, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	if v.Dispatch == nil {
		return nil, errors.New("front door reports no dispatcher")
	}
	return &v, nil
}

// setupService starts the front door and worker, waits for both to
// answer /healthz and runs the warm-up sweep that compiles every program.
// It repeats this reps times, stopping all but the last service, and
// returns the last one with the median set-up time.
func setupService(ctx context.Context, client *http.Client, bin string, workers, reps int, warm *sim.Spec) (*service, Percentile, error) {
	times := make([]float64, 0, reps)
	var svc *service
	for i := range reps {
		if svc != nil {
			svc.stop()
		}
		start := time.Now()
		var err error
		svc, err = startService(ctx, client, bin, workers)
		if err != nil {
			return nil, Percentile{}, err
		}
		if _, err := svc.runSweep(ctx, "warmup", fmt.Sprintf("warmup-%d", i), warm, nil); err != nil {
			svc.stop()
			return nil, Percentile{}, fmt.Errorf("warm-up sweep: %w", err)
		}
		times = append(times, seconds(time.Since(start)))
	}
	return svc, percentile(times, 50), nil
}

// verifyService checks every sweep report against the synchronous
// Session.Run of the same spec, computed in process after the measured
// window; each shard is computed once and replayed for the overlapping
// sweeps that share it.
func verifyService(ctx context.Context, ph *phase, workers int) {
	ref := sim.NewSession(workers)
	ref.SetRunner(newMemoRunner(workers))
	for _, smp := range ph.samples {
		rep, err := ref.Run(ctx, smp.spec)
		if err != nil {
			ph.fail(fmt.Errorf("reference run: %w", err))
			continue
		}
		want, err := reportDigest(rep)
		if err != nil {
			ph.fail(err)
			continue
		}
		if smp.digest != want {
			ph.fail(fmt.Errorf("async report %s differs from sync reference %s", smp.digest[:12], want[:12]))
		}
	}
}
