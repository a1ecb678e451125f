package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"omnc"
)

// workload is one benchmark workload.
type workload struct {
	// session is the session configuration of the traced run's session and
	// coding harnesses.
	session omnc.SessionConfig
	// setup builds the workload's inputs and runs one warm-up op; it
	// returns the instance and the CPU time the set-up took.
	setup func(e *env) (instance, time.Duration, error)
}

// instance is a set-up workload: a fixed op list, walked in rounds.
type instance interface {
	keys() []string    // the key of every op, in the seed's order
	span(i int) string // the span name of op i in a traced pass
	run(i int) error   // runs op i and checks its result
	reset() error      // readies the state the next round starts from
	close() error
}

// workloads are the benchmark's workloads by name.
var workloads = func() map[string]workload {
	m := map[string]workload{"jobs": {session: quickConfig(), setup: setupJobs}}
	for _, w := range simWorkloads {
		m[w.name] = workload{session: w.cfg, setup: w.setup}
	}
	return m
}()

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// A run sets its workload up at least minSetups times, and again while the
// set-ups have taken less than setupBudget of CPU time, up to maxSetups;
// setup_s is their median.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = time.Second
)

// passResult is the outcome of one pass.
type passResult struct {
	lat []float64 // ms of every successful op
	// keys names the op of every lat entry of a workload pass, and rounds
	// holds the ops per CPU second of every whole round over the op list.
	keys      []string
	rounds    []float64
	attempted int
	failed    int
	elapsed   time.Duration
}

// maxFailureLogs caps the failures a pass prints.
const maxFailureLogs = 5

// record counts one op and reports whether it succeeded.
func (p *passResult) record(ms float64, err error) bool {
	p.attempted++
	if err != nil {
		p.failed++
		if p.failed <= maxFailureLogs {
			fmt.Fprintf(os.Stderr, "perfbench: op failed: %v\n", err)
		}
		return false
	}
	p.lat = append(p.lat, ms)
	return true
}

// opsPerSec is the median round's rate.
func (p *passResult) opsPerSec() float64 { return median(p.rounds) }

// opTimes are the samples the latency quantiles are taken over: each
// distinct op's mean time over the run. A mean, because the kernel splits
// a process's CPU time between user and system mode by tick sampling, so
// the user time of one short op is exact only on average.
func (p *passResult) opTimes() []float64 {
	byKey := map[string][]float64{}
	var order []string
	for i, k := range p.keys {
		if byKey[k] == nil {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], p.lat[i])
	}
	out := make([]float64, len(order))
	for i, k := range order {
		out[i] = mean(byKey[k])
	}
	return out
}

// pass walks the instance's whole op list in rounds, starting another
// round only while it is expected to end within d of wall time, so every
// run measures whole rounds of the same multiset of ops whatever the
// seed's order. Ops and rounds are timed in the process's user CPU time
// (cpuTime).
func pass(inst instance, d time.Duration, tr *tracer) (*passResult, error) {
	res := &passResult{}
	keys := inst.keys()
	start := time.Now()
	for last := time.Duration(0); len(res.rounds) == 0 || time.Since(start)+last <= d; {
		roundWall := time.Now()
		if err := inst.reset(); err != nil {
			return nil, err
		}
		roundCPU, done := cpuTime(), 0
		for i, key := range keys {
			t0 := cpuTime()
			sp := tr.begin(inst.span(i), 0)
			err := inst.run(i)
			tr.end(sp)
			if res.record(float64(cpuTime()-t0)/1e6, err) {
				res.keys = append(res.keys, key)
				done++
			}
		}
		last = time.Since(roundWall)
		res.rounds = append(res.rounds, float64(done)/(cpuTime()-roundCPU).Seconds())
	}
	res.elapsed = time.Since(start)
	return res, nil
}

// cpuTime is the user-mode CPU time this process has used; the package
// comment says why the workloads are timed in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid buffer cannot fail
	}
	return time.Duration(ru.Utime.Nano())
}

func runUntraced(e *env, w workload) (*resultLine, error) {
	var (
		inst   instance
		setups []float64
		total  time.Duration
	)
	for len(setups) < maxSetups && (len(setups) < minSetups || total < setupBudget) {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		var (
			d   time.Duration
			err error
		)
		if inst, d, err = w.setup(e); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
		total += d
	}
	res, err := pass(inst, e.seconds, nil)
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	if len(res.lat) == 0 {
		return nil, fmt.Errorf("no op completed (%d attempted)", res.attempted)
	}
	times := res.opTimes()
	vals := map[string]float64{
		"ops_per_s":  res.opsPerSec(),
		"op_ms_p50":  harrellDavis(times, 0.5),
		"op_ms_p90":  harrellDavis(times, 0.9),
		"setup_s":    median(setups),
		"max_rss_mb": rss,
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d ops in %.2fs (%d failed, %d rounds), %.2f ops/s, p50 %.3f ms, p90 %.3f ms over %d samples, setup %.3fs (median of %d), peak RSS %.1f MB\n",
		res.attempted, res.elapsed.Seconds(), res.failed, len(res.rounds), vals["ops_per_s"], vals["op_ms_p50"], vals["op_ms_p90"],
		len(times), vals["setup_s"], len(setups), rss)
	return newResult(endToEnd, vals, res.attempted, res.failed)
}

func runTraced(e *env, w workload) (*resultLine, error) {
	inst, _, err := w.setup(e)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	half := e.seconds / 2
	plain, err := pass(inst, half, nil)
	if err != nil {
		inst.close()
		return nil, err
	}
	tr := newTracer()
	var (
		traced  *passResult
		passErr error
	)
	prof, err := profileSelf(func() { traced, passErr = pass(inst, half, tr) })
	if cerr := inst.close(); passErr == nil {
		passErr = cerr
	}
	if err != nil {
		return nil, err
	}
	if passErr != nil {
		return nil, passErr
	}
	if len(plain.lat) == 0 || len(traced.lat) == 0 {
		return nil, fmt.Errorf("no op completed")
	}
	vals := map[string]float64{"trace.overhead": plain.opsPerSec() / traced.opsPerSec()}
	for _, layer := range layers {
		vals["cpu."+layer] = prof.share(layer)
	}
	vals["cpu.samples"] = float64(prof.total)
	hAttempted, hFailed, err := measureLayers(e, w, tr, vals)
	if err != nil {
		return nil, err
	}
	if err := writeSpans(e, tr); err != nil {
		return nil, err
	}
	attempted := plain.attempted + traced.attempted + hAttempted
	failed := plain.failed + traced.failed + hFailed
	fmt.Fprintf(os.Stderr, "perfbench: traced %d ops (%d failed), %d CPU samples, trace overhead %.3f\n",
		attempted, failed, prof.total, vals["trace.overhead"])
	for _, d := range perLayer {
		if v, ok := vals[d.Name]; ok {
			fmt.Fprintf(os.Stderr, "  %-32s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
	return newResult(perLayer, vals, attempted, failed)
}

// writeSpans stores the traced run's spans, headed by the host facts, as
// JSON lines under .bench_build/trace.
func writeSpans(e *env, tr *tracer) error {
	dir := filepath.Join(e.root, ".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", e.workload, e.seed)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	err = enc.Encode(map[string]any{
		"workload": e.workload, "seed": e.seed, "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
	})
	for i := 0; err == nil && i < len(tr.spans); i++ {
		err = enc.Encode(tr.spans[i])
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// median is the middle of xs, or the mean of its two middle values.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// harrellDavis is the Harrell-Davis estimate of the q-quantile of xs: the
// order statistics averaged with Beta((n+1)q, (n+1)(1-q)) weights. It
// spreads the estimate over the ops ranked near q, so one op's timing noise
// moves it far less than it moves a single order statistic.
func harrellDavis(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	a, b := q*(n+1), (1-q)*(n+1)
	var est, prev float64
	for i, x := range s {
		cur := regIncBeta(a, b, float64(i+1)/n)
		est += (cur - prev) * x
		prev = cur
	}
	return est
}

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction (modified Lentz).
func regIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	case x > (a+1)/(a+b+2):
		return 1 - regIncBeta(b, a, 1-x)
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab-la-lb+a*math.Log(x)+b*math.Log(1-x)) / a
	const tiny = 1e-300
	f, c, d := 1.0, 1.0, 0.0
	for i := 0; i <= 400; i++ {
		m := float64(i / 2)
		var num float64
		switch {
		case i == 0:
			num = 1
		case i%2 == 0:
			num = m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		default:
			num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		}
		d = 1 + num*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		d = 1 / d
		c = 1 + num/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		f *= c * d
		if math.Abs(1-c*d) < 1e-12 {
			break
		}
	}
	return front * (f - 1)
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// peakRSSMB reads VmHWM of /proc/<pid>/status ("self" for this process).
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
