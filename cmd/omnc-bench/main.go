// Command omnc-bench records the repo's session benchmark trajectory as a
// machine-readable JSON report (BENCH_<n>.json at the repo root). It runs
// the exact scenarios behind `go test -bench='^Benchmark(Multi)?Session'`
// (see internal/sessionbench) — single sessions per protocol plus the
// two-session multi-unicast workloads — and emits ns/op, allocs/op and B/op
// next to the recorded baseline, so the allocation win of the pooled hot
// path and the cost of the shared-engine multi path stay auditable numbers
// instead of claims.
//
// Usage:
//
//	omnc-bench [-iters N] [-out BENCH_6.json]   record a fresh report
//	omnc-bench -check BENCH_6.json              validate a committed report
//	omnc-bench -engine-workers N                spot-measure the scaled
//	                                            workload at N workers
//	omnc-bench -scheme rs [-redundancy R]       spot-measure one coding
//	                                            scheme session
//	omnc-bench -field 16                        spot-measure one coefficient
//	                                            field session
//
// The measurement machinery and the regression gates -check re-asserts live
// in internal/benchreport; this command is the flag surface over them. Full
// recordings run through internal/jobs (kind "bench"), the same dispatcher
// omnc-serve uses, so a daemon-recorded report and a CLI-recorded one are
// the same code path.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"

	"omnc/internal/benchreport"
	"omnc/internal/cliflags"
	"omnc/internal/coding"
	"omnc/internal/jobs"
	"omnc/internal/sessionbench"
)

func main() {
	iters := flag.Int("iters", 5, "measured session runs per benchmark (after one warmup)")
	out := flag.String("out", "BENCH_6.json", "output path, or - for stdout")
	check := flag.String("check", "", "validate an existing report instead of benchmarking")
	engWork := flag.Int("engine-workers", -1, "spot-measure the scaled multi-session workload at this engine worker count (0 = serial) instead of recording a report")
	cod := cliflags.RegisterCoding(flag.CommandLine,
		"with -redundancy, the coding scheme to spot-measure; non-default values skip report recording",
		"source emission cap for the -scheme spot measurement (0 = rateless)")
	app := cliflags.New("omnc-bench", flag.CommandLine)
	app.Main(func(ctx context.Context) error {
		return run(ctx, *iters, *out, *check, *engWork, cod.Scheme, cod.Redundancy, cod.Field)
	})
}

func run(ctx context.Context, iters int, out, check string, engWork int, schemeName string, redundancy float64, fieldName string) error {
	if check != "" {
		if err := benchreport.CheckFile(check); err != nil {
			return fmt.Errorf("%s: %w", check, err)
		}
		fmt.Printf("%s: schema %s ok, gates held\n", check, benchreport.SchemaVersion)
		return nil
	}

	// Spot modes measure one scenario; label and tail carry the knob that
	// is not part of the scenario name.
	var s sessionbench.Scenario
	label, tail := "", ""
	switch {
	case schemeName != "rlnc" || redundancy != 0:
		schemeVal, err := coding.ParseScheme(schemeName)
		if err == nil {
			err = coding.ValidateRedundancy(redundancy)
		}
		if err != nil {
			return err
		}
		s = sessionbench.Scheme(schemeVal, redundancy)
		label = fmt.Sprintf(" (redundancy %g)", redundancy)
	case fieldName != "" && fieldName != "8":
		fieldVal, err := coding.ParseField(fieldName)
		if err != nil {
			return err
		}
		s = sessionbench.Field(fieldVal)
	case engWork >= 0:
		s = sessionbench.Scaled(engWork)
		tail = fmt.Sprintf(" (cpus=%d)", runtime.NumCPU())
	}
	if s.Name != "" {
		r, err := benchreport.Measure(s, iters)
		if err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
		fmt.Printf("%s%s: %d ns/op %d allocs/op %d B/op %.0f bytes/s%s\n",
			r.Name, label, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp, r.Throughput, tail)
		return nil
	}

	res, err := jobs.Run(ctx, jobs.Spec{Version: jobs.SpecVersion, Kind: jobs.KindBench, Iters: iters})
	if err != nil {
		return err
	}
	art := res.Artifact("bench.json")
	if art == nil {
		return fmt.Errorf("bench run produced no report artifact")
	}
	if out == "-" {
		os.Stdout.Write(art.Data)
		return nil
	}
	if err := os.WriteFile(out, art.Data, 0o644); err != nil {
		return err
	}
	for _, r := range res.Bench.Benchmarks {
		fmt.Printf("%-12s %12d ns/op %8d allocs/op %10d B/op  (baseline %d allocs/op)\n",
			r.Name, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp, r.Baseline.AllocsPerOp)
	}
	return nil
}
