// Command perfbench is the OMNC workload benchmark. It measures the system
// on the traffic it serves — the paper's unicast comparison sweeps, full
// 1 KB payload coding, multi-session MAC contention and the experiment
// daemon's job path — and, in a separate traced run, gives one number per
// layer.
//
// Run it from the repository root; run.sh builds it and the daemon from
// the checkout's sources into .bench_build/:
//
//	bash perfbench/run.sh --workload paper-quick --seed 1 --seconds 25 --trace 0
//
// Its self-tests run with "cd perfbench && go test .".
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; a human-readable summary
// goes to standard error.
//
// # Workloads
//
// All workloads are closed loops: the next op starts when the previous one
// finishes. Every op runs in one goroutine, the simulations on the serial
// engine.
//
//   - paper-quick: one op is one omnc.Run of one protocol on one endpoint
//     pair; each pair runs OMNC, MORE, oldMORE and ETX in turn. Pairs come
//     from 200-node, density-6 lossy deployments with the paper's 4-10 hop
//     constraint. The session is the default omnc-fig comparison's
//     (experiments.QuickConfig): 40 coefficients with 8-byte rank-fidelity
//     blocks, CBR 1e4 B/s over C = 2e4 B/s, 200 emulated seconds; only the
//     deployment is smaller (that comparison deploys 300 nodes). The
//     catalog holds 12 pairs, 48 ops. Chosen because it is the repo's main
//     use and has a mixed profile: GF(2^8) on 48-byte rows, where per-call
//     table set-up shows, the MAC scheduler, the solver and routing.
//   - paper-full: the same pairs and protocols with the paper's full 1 KB
//     blocks, for 60 emulated seconds so a run holds whole rounds. GF(2^8)
//     multiply-add on long rows is most of the CPU, so a GF kernel gain
//     shows here and a MAC change predicts no change.
//   - contention: one op is one omnc.RunMulti of OMNC with four sessions
//     sharing one 200-node deployment, at the -fig multi cell's session
//     parameters and horizon (paper-quick's, 200 emulated seconds, no
//     queue sampling), so sessions decode and turn generations over; the
//     catalog holds 2 session sets. The MAC's progressive fill dominates,
//     as in a -fig multi run, so a scheduler or engine change must move it
//     and a GF change predicts little.
//   - jobs: one op is one job through the omnc-serve worker path, in this
//     process: Queue.Submit and Claim, jobs.RunWithProgress of the Spec,
//     Store.Land, Queue.Done, then Store.ReadArtifact of one artifact. The
//     Specs are mostly small topo jobs with some small session jobs, and a
//     quarter of the ops repeat an earlier Spec. Every round starts from a
//     fresh copy of a journal pre-populated with 1000 finished jobs and an
//     empty store. Chosen because the journal, the store and the Spec
//     encoding carry it, with little simulation work.
//
// The omnc-serve daemon itself is measured by no workload. Driven over
// HTTP, its wall-clock throughput and latency moved by a factor of two
// between runs of the same seed on a shared 2-vCPU host, and the daemon's
// own CPU time per job still moved by a third, too much for any bound. It
// runs in every traced run instead, as the serve harness: a real
// omnc-serve (-jobs 2) over the pre-populated journal, driven by two
// closed-loop clients over the jobs workload's op list. One op submits the
// Spec with POST /jobs, follows /jobs/{id}/events to a terminal state and
// GETs the artifact.
//
// Inputs come from a fixed catalog (deployments, endpoint pairs, session
// sets, Specs) and the --seed argument: the seed orders the catalog into
// the run's op list. A catalog rather than free sampling keeps every op's
// result checkable against a recorded reference. Endpoints are placed the
// way the experiment harness places them: distinct pairs within the hop
// constraint whose forwarder selection succeeds. The workloads walk the
// whole list in rounds, starting another round only while it is expected
// to end within --seconds, so every run measures the same multiset of ops.
//
// # End-to-end metrics (--trace 0)
//
// Ops are timed in user-mode CPU time of the benchmark process: one
// goroutine runs the ops, so that is the ops' own time plus the runtime's
// concurrent GC work. Unlike wall time it leaves out the time the
// hypervisor takes from the vCPU (steal), which on a shared host moves
// wall-clock figures by tens of percent from one minute to the next. It
// also leaves out kernel time: the jobs workload's file-system calls took
// between 0.4 and 3 ms of kernel time per job for identical work on a
// shared disk, so kernel time would have swamped every other change. The
// user-side cost of the journal, the store and the Specs is measured; the
// kernel's cost of the files they write is not.
//
//   - ops_per_s: the median over the run's rounds of each round's completed
//     ops per CPU second.
//   - op_ms_p50, op_ms_p90: CPU ms per op as Harrell-Davis quantiles over
//     each distinct op's mean over the run (a mean, because the kernel
//     splits CPU time between user and kernel mode by tick sampling, so a
//     short op's user time is exact only on average); the summary states
//     the sample count.
//   - setup_s: the median CPU time of the run's set-ups. A run sets up at
//     least three times and again while the set-ups took under a second in
//     all (at most 25 times). A simulation set-up is topology generation,
//     endpoint placement and one warm-up op; a jobs set-up opens the queue
//     over a copy of the pre-populated journal (replaying it), opens the
//     store and runs one warm-up op.
//   - max_rss_mb: peak RSS (VmHWM) of the benchmark process.
//
// Failed ops are the result line's "failed" count: an op fails when it
// returns an error, when a session's result digest differs from the
// reference, when a job does not end done, or when an artifact's digest
// differs from the reference recorded from jobs.Run of the same Spec. Any
// failure makes "correct" false.
//
// # Per-layer metrics (--trace 1)
//
// A traced run measures the workload twice for half of --seconds each,
// untraced and then under a CPU profile with spans recorded around every
// op, then runs unit-cost harnesses that call each layer's public
// functions from this package. Spans are written to .bench_build/trace/.
// Each metric names the end-to-end metric it should move:
//
//	topology.generate_ms            setup_s on the simulation workloads
//	core.select_ms                  op_ms_p50 on paper-quick
//	core.ratecontrol_ms             op_ms_p50 on paper-quick
//	core.rate_iterations            op_ms_p50 on paper-quick
//	core.joint_ratecontrol_ms       op_ms_p50 on contention
//	lp.solve_ms                     op_ms_p50 on paper-quick
//	session.{omnc,more,oldmore,etx}_ms   ops_per_s on paper-*
//	session.goodput_Bps             unmoved by any perf change
//	session.omnc_gain_vs_etx        unmoved by any perf change
//	coding.decoder_add_us           ops_per_s on paper-full
//	coding.recoder_next_us          ops_per_s on paper-full
//	coding.innovative_ratio         explains a goodput move
//	gf256.muladd_MBps.full          ops_per_s on paper-full
//	gf256.muladd_ns_per_call.quick  ops_per_s on paper-quick
//	gf16.muladd_MBps.full           no workload yet
//	sim.engine_events_per_s         ops_per_s on contention and paper-quick
//	sim.frames_per_host_s           ops_per_s on contention
//	jobs.{submit,claim,done,land}_us     op_ms_p50 on jobs
//	jobs.replay_ms                  setup_s on jobs
//	serve.{submit,exec,notify,artifact}_ms   daemon job latency (no workload)
//	serve.queue_wait_ms             daemon tail latency (no workload)
//	cpu.<layer>, cpu.samples        where the workload's CPU goes
//	trace.overhead                  untraced over traced ops_per_s
//
// The session.*, coding.innovative_ratio and sim.frames_per_host_s metrics
// come from a session harness: the first three pairs of the seed's order,
// all four protocols, at the workload's session parameters (paper-quick's
// for jobs), with the per-run report enabled. The coding harnesses run at
// the same parameters. The serve.* metrics are medians over the serve
// harness's ops: client-side spans for submit and artifact, the job's
// timestamps for queue wait and execution, and SSE receipt minus
// finished_at for notify. All harness timings are wall time.
//
// The cpu.<layer> shares attribute every CPU sample to the innermost frame
// on its stack that belongs to an omnc package, mapped to a layer by
// layerOf; samples with no such frame (GC, scheduler, this benchmark's own
// code) count under cpu.runtime, and kernel time counts for the frame that
// made the system call. No workload runs the GF(2^16) field, so no share
// is printed for it. The host facts (CPU count, Go version, seed) go to
// standard error and to the span file.
//
// # References
//
// references.json holds, for every catalog op, a digest of its result on
// the code the benchmark was written against: the session statistics for
// simulation ops, the artifact bytes of jobs.Run for the Specs. A mismatch
// fails the op, so any drift from bit-identical results fails the run.
// Refreshing the references is a benchmark change of its own, never part
// of a change that claims a gain:
//
//	bash perfbench/run.sh -record
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics of an untraced run, in print order.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run, in print order.
var perLayer = []metricDef{
	{"topology.generate_ms", "ms"},
	{"core.select_ms", "ms"},
	{"core.ratecontrol_ms", "ms"},
	{"core.rate_iterations", "count"},
	{"core.joint_ratecontrol_ms", "ms"},
	{"lp.solve_ms", "ms"},
	{"session.omnc_ms", "ms"},
	{"session.more_ms", "ms"},
	{"session.oldmore_ms", "ms"},
	{"session.etx_ms", "ms"},
	{"session.goodput_Bps", "B/s"},
	{"session.omnc_gain_vs_etx", "ratio"},
	{"coding.decoder_add_us", "us"},
	{"coding.recoder_next_us", "us"},
	{"coding.innovative_ratio", "ratio"},
	{"gf256.muladd_MBps.full", "MB/s"},
	{"gf256.muladd_ns_per_call.quick", "ns"},
	{"gf16.muladd_MBps.full", "MB/s"},
	{"sim.engine_events_per_s", "1/s"},
	{"sim.frames_per_host_s", "1/s"},
	{"jobs.submit_us", "us"},
	{"jobs.claim_us", "us"},
	{"jobs.done_us", "us"},
	{"jobs.land_us", "us"},
	{"jobs.replay_ms", "ms"},
	{"serve.submit_ms", "ms"},
	{"serve.exec_ms", "ms"},
	{"serve.notify_ms", "ms"},
	{"serve.artifact_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"cpu.gf256", "share"},
	{"cpu.coding", "share"},
	{"cpu.sim_mac", "share"},
	{"cpu.sim_engine", "share"},
	{"cpu.core", "share"},
	{"cpu.lp", "share"},
	{"cpu.graph", "share"},
	{"cpu.protocol", "share"},
	{"cpu.routing", "share"},
	{"cpu.topology", "share"},
	{"cpu.jobs", "share"},
	{"cpu.runtime", "share"},
	{"cpu.samples", "count"},
	{"trace.overhead", "ratio"},
}

// metricValue is one metric as printed in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// env is what every workload needs from the command line.
type env struct {
	workload string
	root     string        // repository root
	seed     int64         // workload seed
	seconds  time.Duration // measured time of one run (split in half when traced)
	tmp      string        // scratch directory, removed at exit
	serve    string        // omnc-serve binary
	refs     references
	journal  string // pre-populated queue journal, built on first use
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: "+workloadNames())
		seed     = flag.Int64("seed", 1, "workload seed: orders the catalog into the run's op list")
		seconds  = flag.Float64("seconds", 10, "measured seconds per run")
		traced   = flag.Int("trace", 0, "1 runs the traced pass and the layer harnesses and prints the per-layer metrics")
		record   = flag.Bool("record", false, "run every catalog op once and rewrite perfbench/references.json")
	)
	flag.Parse()
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	// Build outputs and scratch state go under .bench_build of the
	// repository root, the working directory.
	absRoot, err := filepath.Abs(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	e := &env{
		workload: *workload,
		root:     absRoot,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		serve:    filepath.Join(absRoot, ".bench_build", "bin", "omnc-serve"),
	}
	if err := os.MkdirAll(filepath.Join(absRoot, ".bench_build", "tmp"), 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	e.tmp, err = os.MkdirTemp(filepath.Join(absRoot, ".bench_build", "tmp"), "perfbench-*")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(e.tmp)

	if *record {
		if err := recordReferences(filepath.Join(absRoot, "perfbench", "references.json")); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: record: %v\n", err)
			return 1
		}
		return 0
	}
	if e.refs, err = loadReferences(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	w, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, workloadNames())
		return 2
	}
	fmt.Fprintf(os.Stderr, "perfbench: workload %s, seed %d, %v, nproc %d, GOMAXPROCS %d, %s\n",
		*workload, *seed, e.seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	var res *resultLine
	if *traced == 1 {
		res, err = runTraced(e, w)
	} else {
		res, err = runUntraced(e, w)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// newResult checks that vals holds exactly the defined metrics and wraps
// them with their units.
func newResult(defs []metricDef, vals map[string]float64, attempted, failed int) (*resultLine, error) {
	res := &resultLine{
		Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(vals) != len(defs) {
		return nil, fmt.Errorf("measured %d metrics, defined %d", len(vals), len(defs))
	}
	return res, nil
}
