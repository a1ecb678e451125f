// Package benchreport records and validates the repo's session benchmark
// trajectory (the BENCH_<n>.json reports at the repo root). It is the
// library behind cmd/omnc-bench and the jobs service's "bench" kind: both
// surfaces run the exact scenarios behind `go test -bench='^Benchmark
// (Multi)?Session'` (see internal/sessionbench) and emit ns/op, allocs/op
// and B/op next to the recorded baselines, so the allocation wins stay
// auditable numbers instead of claims — and a BENCH re-record on a >= 4-CPU
// machine can be queued as a daemon job whose landed report carries the
// recording machine's CPU count.
package benchreport

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"omnc/internal/protocol"
	"omnc/internal/sessionbench"
)

// SchemaVersion identifies the report layout. Bump only when a field
// changes meaning; adding fields is backward compatible.
const SchemaVersion = "omnc-bench/v1"

// Report is the top-level BENCH_<n>.json document.
type Report struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	// CPUs is runtime.NumCPU() on the recording machine. The parallel-engine
	// speedup gate only binds when this is >= 4; the determinism gate binds
	// regardless. Absent (0) in reports recorded before BENCH_4.json.
	CPUs       int      `json:"cpus,omitempty"`
	Iterations int      `json:"iterations"`
	Benchmarks []Result `json:"benchmarks"`
}

// Result is one session benchmark with its recorded baseline.
type Result struct {
	Name        string   `json:"name"`
	NsPerOp     int64    `json:"ns_per_op"`
	AllocsPerOp int64    `json:"allocs_per_op"`
	BytesPerOp  int64    `json:"bytes_per_op"`
	Throughput  float64  `json:"throughput_bytes_per_s"`
	Baseline    Baseline `json:"baseline"`
}

// Baseline is a frozen earlier measurement of the same scenario.
type Baseline struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

// baselines freezes the pre-pooling numbers (go test -bench Session
// -benchtime=5x on the commit before the arena landed). They stay valid as
// long as internal/sessionbench's scenario is unchanged.
var baselines = map[string]Baseline{
	"SessionOMNC": {NsPerOp: 22093928, AllocsPerOp: 72996, BytesPerOp: 3804190},
	"SessionMORE": {NsPerOp: 9651859, AllocsPerOp: 30166, BytesPerOp: 1692928},
	"SessionETX":  {NsPerOp: 980601, AllocsPerOp: 14319, BytesPerOp: 626320},
}

// multiBaselines freezes the first recorded measurements of the
// multi-unicast scenarios (two contending sessions on one shared engine,
// BENCH_3.json). Unlike the single-session baselines they are not
// pre-optimization numbers — the multi path was born on the pooled hot path
// — so Check holds reports near them instead of far below them.
var multiBaselines = map[string]Baseline{
	"MultiSessionOMNC": {NsPerOp: 21043627, AllocsPerOp: 34732, BytesPerOp: 1378872},
	"MultiSessionETX":  {NsPerOp: 1933779, AllocsPerOp: 2713, BytesPerOp: 123209},
}

// allocGate is the acceptance threshold Check re-asserts: current
// allocs/op must be at most this fraction of baseline on the OMNC session.
const allocGate = 0.5

// multiAllocGate bounds multi-session drift: allocs/op may exceed the
// recorded baseline by at most this factor.
const multiAllocGate = 1.25

// speedupGate is the minimum serial-ns/op over four-worker-ns/op ratio the
// scaled scenario must show, enforced only for reports recorded on a
// machine with at least four CPUs (a single-CPU recorder cannot exhibit
// wall-clock parallel speedup no matter how parallel the round structure).
const speedupGate = 2.0

// schemeAllocGate bounds the non-default coding schemes: their session
// allocs/op may exceed the in-report default-RLNC scheme entry by at most
// this factor. The non-recoding relays queue pooled packets instead of
// re-encoding, and the RS encoder writes into arena packets — neither may
// cost per-packet allocations.
const schemeAllocGate = 2.0

// omncAllocCeiling is the absolute allocs/op bound the pooled OMNC session
// must hold once a report carries field entries (the BENCH_6.json vintage,
// recorded with the solver-workspace arena): rate-control replans reuse
// pooled LP tableaus and credit vectors, so a whole session stays under two
// thousand allocations regardless of replan count.
const omncAllocCeiling = 2000

// fieldAllocGate bounds the non-default coefficient fields: their session
// allocs/op may exceed the in-report default-field OMNC session by at most
// this factor. GF(2^16) doubles coefficient bytes and builds per-scalar
// tables on the stack — neither may show up as heap allocations.
const fieldAllocGate = 2.0

// Record benchmarks every scenario and assembles the report. It honors ctx
// between scenarios: a cancelled recording returns the context's error
// rather than a half-comparable report.
func Record(ctx context.Context, iters int) (*Report, error) {
	if iters < 1 {
		return nil, fmt.Errorf("need at least 1 iteration, got %d", iters)
	}
	rep := &Report{
		Schema:     SchemaVersion,
		GoVersion:  runtime.Version(),
		CPUs:       runtime.NumCPU(),
		Iterations: iters,
	}
	for _, s := range sessionbench.Scenarios() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := Measure(s, iters)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name, err)
		}
		rep.Benchmarks = append(rep.Benchmarks, r)
	}
	for _, s := range sessionbench.MultiScenarios() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := MeasureMulti(s, iters)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name, err)
		}
		rep.Benchmarks = append(rep.Benchmarks, r)
	}
	for _, s := range sessionbench.ScaledMultiScenarios() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := MeasureScaled(s, iters)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name, err)
		}
		rep.Benchmarks = append(rep.Benchmarks, r)
	}
	for _, s := range sessionbench.SchemeScenarios() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := MeasureScheme(s, iters)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name, err)
		}
		rep.Benchmarks = append(rep.Benchmarks, r)
	}
	for _, s := range sessionbench.FieldScenarios() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := MeasureField(s, iters)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name, err)
		}
		rep.Benchmarks = append(rep.Benchmarks, r)
	}
	return rep, nil
}

// Encode serializes the report the way the committed BENCH_<n>.json files
// are stored: indented JSON with a trailing newline.
func (r *Report) Encode() ([]byte, error) {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// MeasureScheme is Measure for one coding-scheme session; scheme entries
// carry no frozen baseline — Check gates them against the in-report
// default-RLNC entry instead.
func MeasureScheme(s sessionbench.SchemeScenario, iters int) (Result, error) {
	nw, src, dst, err := sessionbench.Network()
	if err != nil {
		return Result{}, err
	}
	return measure(s.Name, iters, session(func() (*protocol.Stats, error) { return s.Run(nw, src, dst) }))
}

// MeasureField is Measure for one coefficient-field session; field entries
// carry no frozen baseline — Check gates them against the in-report
// default-field SessionOMNC entry instead.
func MeasureField(s sessionbench.FieldScenario, iters int) (Result, error) {
	nw, src, dst, err := sessionbench.Network()
	if err != nil {
		return Result{}, err
	}
	return measure(s.Name, iters, session(func() (*protocol.Stats, error) { return s.Run(nw, src, dst) }))
}

// Measure benchmarks one session scenario (see measure) and attaches its
// frozen baseline.
func Measure(s sessionbench.Scenario, iters int) (Result, error) {
	nw, src, dst, err := sessionbench.Network()
	if err != nil {
		return Result{}, err
	}
	r, err := measure(s.Name, iters, session(func() (*protocol.Stats, error) { return s.Run(nw, src, dst) }))
	r.Baseline = baselines[s.Name]
	return r, err
}

// MeasureMulti is Measure for a multi-unicast workload: each run drives all
// contending sessions on one shared engine.
func MeasureMulti(s sessionbench.MultiScenario, iters int) (Result, error) {
	nw, _, _, err := sessionbench.Network()
	if err != nil {
		return Result{}, err
	}
	r, err := measure(s.Name, iters, multi(func() (*protocol.MultiStats, error) { return s.Run(nw) }))
	r.Baseline = multiBaselines[s.Name]
	return r, err
}

// MeasureScaled is MeasureMulti for the parallel-engine scaling workload:
// sixteen sessions on radio-isolated strips with the scenario's engine
// worker count. The emulated throughput must come out identical for every
// worker count — Check enforces that.
func MeasureScaled(s sessionbench.ScaledMultiScenario, iters int) (Result, error) {
	nw, sessions, err := sessionbench.ScaledNetwork()
	if err != nil {
		return Result{}, err
	}
	return measure(s.Name, iters, multi(func() (*protocol.MultiStats, error) { return s.Run(nw, sessions) }))
}

// measure runs one warmup (arena fill, lazy tables) and then iters timed
// runs, deriving allocs/op and B/op from MemStats deltas — the same
// quantities testing.B reports with -benchmem. run reports one run's
// throughput, or an error when the run failed or delivered nothing; the
// result carries the last timed run's throughput.
func measure(name string, iters int, run func() (throughput float64, err error)) (Result, error) {
	if _, err := run(); err != nil {
		return Result{}, err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	var tput float64
	for i := 0; i < iters; i++ {
		var err error
		if tput, err = run(); err != nil {
			return Result{}, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := int64(iters)
	return Result{
		Name:        name,
		NsPerOp:     elapsed.Nanoseconds() / n,
		AllocsPerOp: int64(after.Mallocs-before.Mallocs) / n,
		BytesPerOp:  int64(after.TotalAlloc-before.TotalAlloc) / n,
		Throughput:  tput,
	}, nil
}

// session adapts a single-session run to measure: a session that decoded
// no generation is an error.
func session(run func() (*protocol.Stats, error)) func() (float64, error) {
	return func() (float64, error) {
		st, err := run()
		if err != nil {
			return 0, err
		}
		if st.GenerationsDecoded == 0 {
			return 0, fmt.Errorf("session decoded nothing")
		}
		return st.Throughput, nil
	}
}

// multi adapts a multi-session run to measure: every session must deliver
// something, and the throughput is the aggregate.
func multi(run func() (*protocol.MultiStats, error)) func() (float64, error) {
	return func() (float64, error) {
		ms, err := run()
		if err != nil {
			return 0, err
		}
		for j, st := range ms.PerSession {
			if st.Throughput <= 0 {
				return 0, fmt.Errorf("session %d delivered nothing", j)
			}
		}
		return ms.AggregateThroughput, nil
	}
}

// CheckFile validates a committed report file (see Check).
func CheckFile(path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return Check(buf)
}

// Check validates a serialized report: schema identity, one entry per
// scenario with sane fields, and every regression gate the report's vintage
// carries — the OMNC allocation gate always, the multi-session drift gate
// when multi entries are present, ladder throughput equality (plus the
// four-worker speedup when the recorder had >= 4 CPUs), and the
// coding-scheme arena gate.
func Check(buf []byte) error {
	var rep Report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return fmt.Errorf("parse: %w", err)
	}
	if rep.Schema != SchemaVersion {
		return fmt.Errorf("schema %q, want %q", rep.Schema, SchemaVersion)
	}
	if rep.GoVersion == "" {
		return fmt.Errorf("missing go_version")
	}
	if rep.Iterations < 1 {
		return fmt.Errorf("iterations %d, want >= 1", rep.Iterations)
	}
	byName := map[string]Result{}
	for _, r := range rep.Benchmarks {
		if r.NsPerOp <= 0 || r.AllocsPerOp <= 0 || r.BytesPerOp <= 0 {
			return fmt.Errorf("%s: non-positive measurement %+v", r.Name, r)
		}
		if r.Throughput <= 0 {
			return fmt.Errorf("%s: non-positive throughput", r.Name)
		}
		byName[r.Name] = r
	}
	for _, s := range sessionbench.Scenarios() {
		r, ok := byName[s.Name]
		if !ok {
			return fmt.Errorf("missing benchmark %s", s.Name)
		}
		if r.Baseline != baselines[s.Name] {
			return fmt.Errorf("%s: baseline %+v drifted from recorded %+v", s.Name, r.Baseline, baselines[s.Name])
		}
	}
	omncRes := byName["SessionOMNC"]
	limit := int64(float64(omncRes.Baseline.AllocsPerOp) * allocGate)
	if omncRes.AllocsPerOp > limit {
		return fmt.Errorf("SessionOMNC allocs/op %d exceeds gate %d (%.0f%% of baseline %d)",
			omncRes.AllocsPerOp, limit, allocGate*100, omncRes.Baseline.AllocsPerOp)
	}
	// Multi-unicast entries appeared in BENCH_3.json; a report that carries
	// any of them must carry all of them, with unchanged baselines and
	// allocs/op within the drift gate. Earlier reports stay valid.
	hasMulti := false
	for name := range multiBaselines {
		if _, ok := byName[name]; ok {
			hasMulti = true
			break
		}
	}
	if hasMulti {
		for _, s := range sessionbench.MultiScenarios() {
			r, ok := byName[s.Name]
			if !ok {
				return fmt.Errorf("missing benchmark %s", s.Name)
			}
			if r.Baseline != multiBaselines[s.Name] {
				return fmt.Errorf("%s: baseline %+v drifted from recorded %+v", s.Name, r.Baseline, multiBaselines[s.Name])
			}
			mlimit := int64(float64(r.Baseline.AllocsPerOp) * multiAllocGate)
			if r.AllocsPerOp > mlimit {
				return fmt.Errorf("%s allocs/op %d exceeds gate %d (%.0f%% of baseline %d)",
					s.Name, r.AllocsPerOp, mlimit, multiAllocGate*100, r.Baseline.AllocsPerOp)
			}
		}
	}
	// The parallel-engine scaling ladder appeared in BENCH_4.json. A report
	// carrying any rung must carry all of them with identical emulated
	// throughput (the engines are bit-identical by contract — divergence is
	// a determinism bug, never noise), must declare the recording machine's
	// CPU count, and — when that machine could actually run rounds in
	// parallel (cpus >= 4) — must show the speedup the parallel engine
	// exists for.
	scaled := sessionbench.ScaledMultiScenarios()
	hasScaled := false
	for _, s := range scaled {
		if _, ok := byName[s.Name]; ok {
			hasScaled = true
			break
		}
	}
	if hasScaled {
		var serial, four Result
		var tp float64
		for i, s := range scaled {
			r, ok := byName[s.Name]
			if !ok {
				return fmt.Errorf("missing benchmark %s", s.Name)
			}
			if i == 0 {
				tp = r.Throughput
			} else if r.Throughput != tp {
				return fmt.Errorf("%s: emulated throughput %v differs from %s's %v — parallel engine diverged from serial",
					s.Name, r.Throughput, scaled[0].Name, tp)
			}
			switch s.EngineWorkers {
			case 0:
				serial = r
			case 4:
				four = r
			}
		}
		if rep.CPUs < 1 {
			return fmt.Errorf("report carries the scaling ladder but no cpus field")
		}
		if rep.CPUs >= 4 {
			ratio := float64(serial.NsPerOp) / float64(four.NsPerOp)
			if ratio < speedupGate {
				return fmt.Errorf("scaled speedup %.2fx at 4 workers below gate %.1fx (serial %d ns/op, workers=4 %d ns/op, cpus=%d)",
					ratio, speedupGate, serial.NsPerOp, four.NsPerOp, rep.CPUs)
			}
		}
	}
	// Coding-scheme entries appeared in BENCH_5.json: a report carrying any
	// of them must carry all of them, and the non-recoding strategies must
	// stay within schemeAllocGate of the in-report default-RLNC session —
	// the arena-use proof for the strategy layer. Earlier reports stay valid.
	schemes := sessionbench.SchemeScenarios()
	hasSchemes := false
	for _, s := range schemes {
		if _, ok := byName[s.Name]; ok {
			hasSchemes = true
			break
		}
	}
	if hasSchemes {
		ref, ok := byName["SessionScheme/rlnc"]
		if !ok {
			return fmt.Errorf("scheme entries present but the SessionScheme/rlnc reference is missing")
		}
		for _, s := range schemes {
			r, ok := byName[s.Name]
			if !ok {
				return fmt.Errorf("missing benchmark %s", s.Name)
			}
			slimit := int64(float64(ref.AllocsPerOp) * schemeAllocGate)
			if r.AllocsPerOp > slimit {
				return fmt.Errorf("%s allocs/op %d exceeds gate %d (%.0f%% of SessionScheme/rlnc's %d)",
					s.Name, r.AllocsPerOp, slimit, schemeAllocGate*100, ref.AllocsPerOp)
			}
		}
	}
	// Coefficient-field entries appeared in BENCH_6.json, recorded with the
	// solver-workspace arena. A report carrying any of them must carry all of
	// them within fieldAllocGate of the in-report default-field OMNC session,
	// and the OMNC session itself must hold the absolute workspace-era
	// allocation ceiling — a far tighter bound than the fraction-of-baseline
	// gate above. Earlier reports stay valid.
	fields := sessionbench.FieldScenarios()
	hasFields := false
	for _, s := range fields {
		if _, ok := byName[s.Name]; ok {
			hasFields = true
			break
		}
	}
	if hasFields {
		if omncRes.AllocsPerOp > omncAllocCeiling {
			return fmt.Errorf("SessionOMNC allocs/op %d exceeds the workspace-era ceiling %d",
				omncRes.AllocsPerOp, omncAllocCeiling)
		}
		for _, s := range fields {
			r, ok := byName[s.Name]
			if !ok {
				return fmt.Errorf("missing benchmark %s", s.Name)
			}
			flimit := int64(float64(omncRes.AllocsPerOp) * fieldAllocGate)
			if r.AllocsPerOp > flimit {
				return fmt.Errorf("%s allocs/op %d exceeds gate %d (%.0f%% of SessionOMNC's %d)",
					s.Name, r.AllocsPerOp, flimit, fieldAllocGate*100, omncRes.AllocsPerOp)
			}
		}
	}
	return nil
}
