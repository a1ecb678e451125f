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

// baselines freezes earlier measurements by scenario name; Measure attaches
// them and Check holds every entry that has one to it unchanged. They stay
// valid as long as internal/sessionbench's scenarios are unchanged.
var baselines = map[string]Baseline{
	// The pre-pooling single sessions (go test -bench Session
	// -benchtime=5x on the commit before the arena landed).
	"SessionOMNC": {NsPerOp: 22093928, AllocsPerOp: 72996, BytesPerOp: 3804190},
	"SessionMORE": {NsPerOp: 9651859, AllocsPerOp: 30166, BytesPerOp: 1692928},
	"SessionETX":  {NsPerOp: 980601, AllocsPerOp: 14319, BytesPerOp: 626320},
	// The first recorded multi-unicast measurements (BENCH_3.json). Unlike
	// the single-session baselines they are not pre-optimization numbers —
	// the multi path was born on the pooled hot path — so Check holds
	// reports near them instead of far below them.
	"MultiSessionOMNC": {NsPerOp: 21043627, AllocsPerOp: 34732, BytesPerOp: 1378872},
	"MultiSessionETX":  {NsPerOp: 1933779, AllocsPerOp: 2713, BytesPerOp: 123209},
}

// gate is one row of Check's gate table. It binds once a report carries any
// entry of its family (a family appears in some BENCH vintage and stays), and
// then the report must carry every entry of the family.
type gate struct {
	family string
	// always binds the gate even to a report without the family.
	always bool
	// subject is the one gated entry; "" gates every entry of the family.
	subject string
	// ref is the in-report reference entry; "" compares each subject with
	// its own frozen baseline.
	ref string
	// ratio bounds subject allocs/op at ratio x the reference's.
	ratio float64
	// ceiling, when set, bounds the reference's allocs/op absolutely.
	ceiling int64
	// speedup, when set, makes the family a scaling ladder: every rung must
	// report the first rung's throughput (the engines are bit-identical by
	// contract — divergence is a determinism bug, never noise), the report
	// must declare its cpus, and at cpus >= 4 (a smaller recorder cannot
	// exhibit wall-clock parallel speedup) the first rung's ns/op over ref's
	// must reach speedup.
	speedup float64
}

// gates is the table Check enforces, one row per family in recorded order.
var gates = []gate{
	// The pooled OMNC session holds at most half its pre-pooling allocs/op.
	{family: sessionbench.FamilySession, always: true, subject: "SessionOMNC", ratio: 0.5},
	// Multi-session allocs/op may exceed the recorded baselines by 25%.
	{family: sessionbench.FamilyMulti, ratio: 1.25},
	{family: sessionbench.FamilyScaled, ref: "MultiSessionScaled/workers=4", speedup: 2.0},
	// The non-recoding relays queue pooled packets instead of re-encoding,
	// and the RS encoder writes into arena packets — neither may cost
	// per-packet allocations.
	{family: sessionbench.FamilyScheme, ref: "SessionScheme/rlnc", ratio: 2.0},
	// Recorded with the solver-workspace arena: rate-control replans reuse
	// pooled LP tableaus and credit vectors, so a whole OMNC session stays
	// under two thousand allocations (the workspace-era ceiling). GF(2^16)
	// doubles coefficient bytes and builds per-scalar tables on the stack —
	// neither may show up as heap allocations.
	{family: sessionbench.FamilyField, ref: "SessionOMNC", ratio: 2.0, ceiling: 2000},
}

// Record benchmarks every scenario and assembles the report. It honors ctx
// between scenarios: a cancelled recording returns the context's error
// rather than a half-comparable report.
func Record(ctx context.Context, iters int) (*Report, error) {
	rep := &Report{
		Schema:     SchemaVersion,
		GoVersion:  runtime.Version(),
		CPUs:       runtime.NumCPU(),
		Iterations: iters,
	}
	for _, s := range sessionbench.All() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := Measure(s, iters)
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

// Measure sets the scenario up, runs it once as warmup (arena fill, lazy
// tables) and then iters timed runs, deriving allocs/op and B/op from
// MemStats deltas — the same quantities testing.B reports with -benchmem.
// The result carries the last timed run's throughput and the scenario's
// frozen baseline, if it has one.
func Measure(s sessionbench.Scenario, iters int) (Result, error) {
	if iters < 1 {
		return Result{}, fmt.Errorf("need at least 1 iteration, got %d", iters)
	}
	run, err := s.Setup()
	if err != nil {
		return Result{}, err
	}
	if _, err := run(); err != nil {
		return Result{}, err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	var tput float64
	for i := 0; i < iters; i++ {
		if tput, err = run(); err != nil {
			return Result{}, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := int64(iters)
	return Result{
		Name:        s.Name,
		NsPerOp:     elapsed.Nanoseconds() / n,
		AllocsPerOp: int64(after.Mallocs-before.Mallocs) / n,
		BytesPerOp:  int64(after.TotalAlloc-before.TotalAlloc) / n,
		Throughput:  tput,
		Baseline:    baselines[s.Name],
	}, nil
}

// CheckFile validates a committed report file (see Check).
func CheckFile(path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return Check(buf)
}

// Check validates a serialized report: schema identity, sane fields on
// every entry, frozen baselines unchanged, and every row of the gate table
// whose family the report's vintage carries.
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
		if b, ok := baselines[r.Name]; ok && r.Baseline != b {
			return fmt.Errorf("%s: baseline %+v drifted from recorded %+v", r.Name, r.Baseline, b)
		}
		byName[r.Name] = r
	}
	families := map[string][]string{}
	present := map[string]bool{}
	for _, s := range sessionbench.All() {
		families[s.Family] = append(families[s.Family], s.Name)
		if _, ok := byName[s.Name]; ok {
			present[s.Family] = true
		}
	}
	for _, g := range gates {
		if !g.always && !present[g.family] {
			continue
		}
		if err := g.check(rep.CPUs, byName, families[g.family]); err != nil {
			return err
		}
	}
	return nil
}

// check enforces one gate row on a report that carries (or must carry) the
// row's family, whose entries are members in recorded order.
func (g gate) check(cpus int, byName map[string]Result, members []string) error {
	ref, hasRef := byName[g.ref]
	if g.ref != "" && !hasRef {
		return fmt.Errorf("%s entries present but the %s reference is missing", g.family, g.ref)
	}
	for _, name := range members {
		if _, ok := byName[name]; !ok {
			return fmt.Errorf("missing benchmark %s", name)
		}
	}
	if g.ceiling > 0 && ref.AllocsPerOp > g.ceiling {
		return fmt.Errorf("%s allocs/op %d exceeds the workspace-era ceiling %d", g.ref, ref.AllocsPerOp, g.ceiling)
	}
	if g.speedup > 0 {
		return g.checkLadder(cpus, byName, members, ref)
	}
	if g.subject != "" {
		members = []string{g.subject}
	}
	for _, name := range members {
		r, against, refAllocs := byName[name], g.ref, ref.AllocsPerOp
		if g.ref == "" {
			against, refAllocs = "baseline", r.Baseline.AllocsPerOp
		}
		if limit := int64(float64(refAllocs) * g.ratio); r.AllocsPerOp > limit {
			return fmt.Errorf("%s allocs/op %d exceeds gate %d (%.0f%% of %s's %d)",
				name, r.AllocsPerOp, limit, g.ratio*100, against, refAllocs)
		}
	}
	return nil
}

// checkLadder enforces a scaling-ladder row (see gate.speedup) whose rungs
// are members, serial first; ref is the rung the speedup is measured at.
func (g gate) checkLadder(cpus int, byName map[string]Result, members []string, ref Result) error {
	serial := byName[members[0]]
	for _, name := range members[1:] {
		if r := byName[name]; r.Throughput != serial.Throughput {
			return fmt.Errorf("%s: emulated throughput %v differs from %s's %v — parallel engine diverged from serial",
				name, r.Throughput, members[0], serial.Throughput)
		}
	}
	if cpus < 1 {
		return fmt.Errorf("report carries the scaling ladder but no cpus field")
	}
	if ratio := float64(serial.NsPerOp) / float64(ref.NsPerOp); cpus >= 4 && ratio < g.speedup {
		return fmt.Errorf("scaled speedup %.2fx of %s over %s below gate %.1fx (%d vs %d ns/op, cpus=%d)",
			ratio, g.ref, members[0], g.speedup, ref.NsPerOp, serial.NsPerOp, cpus)
	}
	return nil
}
