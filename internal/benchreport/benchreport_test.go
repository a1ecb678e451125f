package benchreport

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"omnc/internal/sessionbench"
)

// TestCheckCommittedReports re-validates every committed BENCH_<n>.json the
// way CI does — the library move out of cmd/omnc-bench must not loosen a
// single gate.
func TestCheckCommittedReports(t *testing.T) {
	for _, name := range []string{"BENCH_2.json", "BENCH_3.json", "BENCH_4.json", "BENCH_5.json", "BENCH_6.json"} {
		if err := CheckFile("../../" + name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// mutateCommitted loads BENCH_6.json, applies mut, and returns the
// re-serialized report — a passing report one edit away from the case under
// test, so each gate is exercised in isolation.
func mutateCommitted(t *testing.T, mut func(*Report)) []byte {
	t.Helper()
	buf, err := os.ReadFile("../../BENCH_6.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatal(err)
	}
	mut(&rep)
	out, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func (r *Report) result(name string) *Result {
	for i := range r.Benchmarks {
		if r.Benchmarks[i].Name == name {
			return &r.Benchmarks[i]
		}
	}
	return nil
}

// drop removes the named entries from the report.
func (r *Report) drop(names ...string) {
	kept := r.Benchmarks[:0]
	for _, b := range r.Benchmarks {
		gone := false
		for _, n := range names {
			gone = gone || b.Name == n
		}
		if !gone {
			kept = append(kept, b)
		}
	}
	r.Benchmarks = kept
}

// TestCheckGates exercises every Check gate through single-edit mutations of
// the committed BENCH_6.json: each failing row trips exactly one gate, and
// each passing row sits on a gate's boundary, so a moved gate value or a
// gate that stopped binding shows up as a failed row. The gate values are
// spelled out as literals here on purpose — they pin the recorded
// thresholds, not whatever the implementation currently names them.
func TestCheckGates(t *testing.T) {
	const (
		omncFraction = 0.5  // SessionOMNC allocs/op vs its frozen baseline
		multiDrift   = 1.25 // multi-session allocs/op vs frozen baselines
		speedup      = 2.0  // serial vs workers=4 ns/op at cpus >= 4
		schemeRatio  = 2.0  // scheme allocs/op vs SessionScheme/rlnc
		omncCeiling  = 2000 // absolute SessionOMNC allocs/op with field entries
		fieldRatio   = 2.0  // field allocs/op vs SessionOMNC
	)
	scaled := func(rep *Report, name string) *Result { return rep.result("MultiSessionScaled/" + name) }
	rows := []struct {
		name string
		mut  func(*Report)
		want []string // substrings of the error; nil means Check passes
	}{
		{"committed report passes", func(*Report) {}, nil},
		{"non-positive measurement", func(rep *Report) {
			rep.result("SessionETX").BytesPerOp = 0
		}, []string{"SessionETX", "non-positive measurement"}},
		{"non-positive throughput", func(rep *Report) {
			rep.result("MultiSessionETX").Throughput = 0
		}, []string{"MultiSessionETX", "non-positive throughput"}},

		// Single sessions: always required, frozen baselines, OMNC fraction gate.
		{"session entry missing", func(rep *Report) {
			rep.drop("SessionETX")
		}, []string{"missing benchmark SessionETX"}},
		{"session baseline drift", func(rep *Report) {
			rep.result("SessionMORE").Baseline.AllocsPerOp++
		}, []string{"SessionMORE", "drifted"}},
		{"OMNC allocs over half its baseline", func(rep *Report) {
			// Without field entries only the fraction gate binds.
			rep.drop("SessionField/16")
			r := rep.result("SessionOMNC")
			r.AllocsPerOp = int64(float64(r.Baseline.AllocsPerOp)*omncFraction) + 1
		}, []string{"SessionOMNC allocs/op", "exceeds gate"}},
		{"OMNC allocs at half its baseline", func(rep *Report) {
			rep.drop("SessionField/16")
			r := rep.result("SessionOMNC")
			r.AllocsPerOp = int64(float64(r.Baseline.AllocsPerOp) * omncFraction)
		}, nil},

		// Multi-session family: frozen baselines, drift gate.
		{"multi baseline drift", func(rep *Report) {
			rep.result("MultiSessionETX").Baseline.NsPerOp++
		}, []string{"MultiSessionETX", "drifted"}},
		{"multi allocs over 1.25x baseline", func(rep *Report) {
			r := rep.result("MultiSessionOMNC")
			r.AllocsPerOp = int64(float64(r.Baseline.AllocsPerOp)*multiDrift) + 1
		}, []string{"MultiSessionOMNC allocs/op", "exceeds gate"}},
		{"multi allocs at 1.25x baseline", func(rep *Report) {
			r := rep.result("MultiSessionOMNC")
			r.AllocsPerOp = int64(float64(r.Baseline.AllocsPerOp) * multiDrift)
		}, nil},
		{"multi family incomplete", func(rep *Report) {
			rep.drop("MultiSessionETX")
		}, []string{"missing benchmark MultiSessionETX"}},
		{"multi family absent", func(rep *Report) {
			rep.drop("MultiSessionOMNC", "MultiSessionETX")
		}, nil},

		// Scaling ladder: identical throughput, cpus declared, speedup at cpus >= 4.
		{"ladder incomplete", func(rep *Report) {
			rep.drop("MultiSessionScaled/workers=8")
		}, []string{"missing benchmark MultiSessionScaled/workers=8"}},
		{"ladder throughput divergence", func(rep *Report) {
			scaled(rep, "workers=2").Throughput *= 1 + 1e-12
		}, []string{"MultiSessionScaled/workers=2", "diverged"}},
		{"ladder without cpus", func(rep *Report) {
			rep.CPUs = 0
		}, []string{"cpus"}},
		{"ladder absent without cpus", func(rep *Report) {
			rep.drop("MultiSessionScaled/serial", "MultiSessionScaled/workers=2",
				"MultiSessionScaled/workers=4", "MultiSessionScaled/workers=8")
			rep.CPUs = 0
		}, nil},
		{"speedup below 2x at cpus 4", func(rep *Report) {
			rep.CPUs = 4
			scaled(rep, "workers=4").NsPerOp = scaled(rep, "serial").NsPerOp
		}, []string{"speedup"}},
		{"speedup at 2x at cpus 4", func(rep *Report) {
			rep.CPUs = 4
			scaled(rep, "workers=4").NsPerOp = int64(float64(scaled(rep, "serial").NsPerOp) / speedup)
		}, nil},
		{"speedup unchecked at cpus 3", func(rep *Report) {
			rep.CPUs = 3
			scaled(rep, "workers=4").NsPerOp = scaled(rep, "serial").NsPerOp
		}, nil},

		// Coding schemes: ratio to the in-report SessionScheme/rlnc entry.
		{"scheme allocs over 2x rlnc", func(rep *Report) {
			rep.result("SessionScheme/rs").AllocsPerOp = int64(float64(rep.result("SessionScheme/rlnc").AllocsPerOp)*schemeRatio) + 1
		}, []string{"SessionScheme/rs allocs/op", "exceeds gate"}},
		{"scheme allocs at 2x rlnc", func(rep *Report) {
			rep.result("SessionScheme/rs").AllocsPerOp = int64(float64(rep.result("SessionScheme/rlnc").AllocsPerOp) * schemeRatio)
		}, nil},
		{"scheme family incomplete", func(rep *Report) {
			rep.drop("SessionScheme/rlnc-e2e")
		}, []string{"missing benchmark SessionScheme/rlnc-e2e"}},
		{"missing SessionScheme/rlnc reference", func(rep *Report) {
			rep.drop("SessionScheme/rlnc")
		}, []string{"SessionScheme/rlnc reference is missing"}},

		// Coefficient fields: absolute OMNC ceiling plus ratio to SessionOMNC.
		{"OMNC over the workspace-era ceiling", func(rep *Report) {
			// Over the absolute ceiling but still far under the 50%-of-baseline
			// gate (36498), so only the field-vintage gate can catch it.
			rep.result("SessionOMNC").AllocsPerOp = omncCeiling + 1
		}, []string{"workspace-era ceiling"}},
		{"OMNC at the workspace-era ceiling", func(rep *Report) {
			omnc := rep.result("SessionOMNC")
			omnc.AllocsPerOp = omncCeiling
			// Keep the field entry inside its ratio to the raised reference.
			rep.result("SessionField/16").AllocsPerOp = omncCeiling
		}, nil},
		{"field allocs over 2x OMNC", func(rep *Report) {
			omnc := rep.result("SessionOMNC")
			rep.result("SessionField/16").AllocsPerOp = int64(float64(omnc.AllocsPerOp)*fieldRatio) + 1
		}, []string{"SessionField/16"}},
		{"field allocs at 2x OMNC", func(rep *Report) {
			omnc := rep.result("SessionOMNC")
			rep.result("SessionField/16").AllocsPerOp = int64(float64(omnc.AllocsPerOp) * fieldRatio)
		}, nil},
		{"earlier vintage drops the field gates", func(rep *Report) {
			// Without field entries neither field-vintage gate applies, so a
			// pre-BENCH_6 allocs/op level passes again.
			rep.drop("SessionField/16")
			rep.result("SessionOMNC").AllocsPerOp = omncCeiling + 1
		}, nil},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			err := Check(mutateCommitted(t, row.mut))
			if row.want == nil {
				if err != nil {
					t.Fatalf("want pass, got %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want an error containing %q, got pass", row.want)
			}
			for _, w := range row.want {
				if !strings.Contains(err.Error(), w) {
					t.Fatalf("error %q lacks %q", err, w)
				}
			}
		})
	}
}

func TestCheckRejectsGarbage(t *testing.T) {
	if err := Check([]byte("{")); err == nil {
		t.Fatal("malformed JSON must fail")
	}
	if err := Check([]byte(`{"schema":"omnc-bench/v999"}`)); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("wrong schema must fail, got %v", err)
	}
}

func TestRecordRejectsZeroIters(t *testing.T) {
	if _, err := Record(context.Background(), 0); err == nil {
		t.Fatal("zero iterations must fail")
	}
}

// TestMeasureRejectsZeroIters: the spot modes reach Measure directly, so
// Measure itself must refuse a non-positive count instead of dividing by it.
func TestMeasureRejectsZeroIters(t *testing.T) {
	for _, iters := range []int{0, -1} {
		if _, err := Measure(sessionbench.Scaled(0), iters); err == nil {
			t.Fatalf("%d iterations must fail", iters)
		}
	}
}

func TestRecordHonorsCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Record(ctx, 1); err == nil {
		t.Fatal("cancelled context must abort the recording")
	}
}
