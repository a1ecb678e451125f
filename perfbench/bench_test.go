package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"omnc"
	"omnc/internal/gf256"
	"omnc/internal/jobs"
)

func testCatalog(t *testing.T) *catalog {
	t.Helper()
	cat, err := buildCatalog(true)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestOpListsArePureFunctionsOfTheSeed(t *testing.T) {
	a, b := testCatalog(t), testCatalog(t)
	for _, seed := range []int64{1, 2, -7} {
		if !reflect.DeepEqual(pairOps(a, seed), pairOps(b, seed)) {
			t.Errorf("seed %d: pair op lists differ between two catalogs", seed)
		}
		if !reflect.DeepEqual(setOps(a, seed), setOps(b, seed)) {
			t.Errorf("seed %d: set op lists differ between two catalogs", seed)
		}
		if !reflect.DeepEqual(specOps(208, seed), specOps(208, seed)) {
			t.Errorf("seed %d: Spec op lists differ", seed)
		}
	}
	if reflect.DeepEqual(pairOps(a, 1), pairOps(a, 2)) {
		t.Error("seeds 1 and 2 give the same pair order")
	}
	if reflect.DeepEqual(specOps(208, 1), specOps(208, 2)) {
		t.Error("seeds 1 and 2 give the same Spec op list")
	}
	if !reflect.DeepEqual(specCatalog(), specCatalog()) {
		t.Error("two Spec catalogs differ")
	}
	for i := range a.pairs {
		pa, pb := a.pairs[i], b.pairs[i]
		if pa.key != pb.key || pa.src != pb.src || pa.dst != pb.dst || pa.seed != pb.seed {
			t.Errorf("catalog pair %d differs: %+v vs %+v", i, pa, pb)
		}
	}
}

func TestReferencesCoverTheCatalog(t *testing.T) {
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	cat := testCatalog(t)
	for _, w := range []string{"paper-quick", "paper-full"} {
		for _, op := range pairOps(cat, 1) {
			if refs[w][op.key] == "" {
				t.Errorf("%s: no reference for %s", w, op.key)
			}
		}
	}
	for _, op := range setOps(cat, 1) {
		if refs["contention"][op.key] == "" {
			t.Errorf("contention: no reference for %s", op.key)
		}
	}
	for _, sc := range specCatalog() {
		if refs["jobs"][sc.key] == "" {
			t.Errorf("jobs: no reference for %s", sc.key)
		}
	}
}

// TestPerturbedResultTripsTheDigest runs one real op, checks it against the
// recorded reference, and shows that changing the result in its last bit,
// or the reference, fails the check.
func TestPerturbedResultTripsTheDigest(t *testing.T) {
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	cat := testCatalog(t)
	s := &simInstance{w: simWorkloads[0], cat: cat, protos: protocols(), refs: refs["paper-quick"]}
	op := simOp{key: cat.pairs[0].key + "/etx", pair: 0, proto: 3, set: -1}
	if err := s.check(op); err != nil {
		t.Fatalf("unperturbed op: %v", err)
	}

	cfg := quickConfig()
	cfg.Seed = cat.pairs[0].seed
	st, err := omnc.Run(cat.pairs[0].net, cat.pairs[0].src, cat.pairs[0].dst, omnc.ETX(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := sessionDigest(st); got != refs["paper-quick"][op.key] {
		t.Fatalf("digest %s, reference %s", got, refs["paper-quick"][op.key])
	}
	st.Throughput = nextAfter(st.Throughput)
	if sessionDigest(st) == refs["paper-quick"][op.key] {
		t.Error("a one-ulp change in throughput kept the digest")
	}

	s.refs = map[string]string{op.key: "0000000000000000"}
	if err := s.check(op); err == nil || !strings.Contains(err.Error(), "reference") {
		t.Errorf("check against a wrong reference: %v, want a digest mismatch", err)
	}

	sc := specCatalog()[0]
	res, err := jobs.Run(context.Background(), sc.spec)
	if err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), res.Artifact(sc.artifact).Data...)
	if got := artifactDigest(data); got != refs["jobs"][sc.key] {
		t.Fatalf("%s: artifact digest %s, reference %s", sc.key, got, refs["jobs"][sc.key])
	}
	data[len(data)/2] ^= 1
	if artifactDigest(data) == refs["jobs"][sc.key] {
		t.Error("a flipped artifact bit kept the digest")
	}
}

// TestJobsOpsPassAndTripTheDigest runs the jobs workload's first ops in
// process, then shows that a wrong reference fails an op.
func TestJobsOpsPassAndTripTheDigest(t *testing.T) {
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	e := &env{seed: 1, tmp: t.TempDir(), refs: refs}
	inst, _, err := setupJobs(e)
	if err != nil {
		t.Fatal(err)
	}
	s := inst.(*jobsInstance)
	defer s.close()
	for i := 0; i < 8; i++ {
		if err := s.run(i); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	key := s.keys()[0]
	s.refs = map[string]string{key: "0000000000000000"}
	if err := s.run(0); err == nil || !strings.Contains(err.Error(), "reference") {
		t.Errorf("op against a wrong reference: %v, want a digest mismatch", err)
	}
}

func nextAfter(x float64) float64 {
	if x == 0 {
		return 5e-324
	}
	return x * (1 + 1e-15)
}

func TestEveryInternalPackageMapsToALayer(t *testing.T) {
	entries, err := os.ReadDir("../internal")
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, l := range append(append([]string(nil), layers...), unprofiledLayers...) {
		known[l] = true
	}
	dirs := map[string]bool{}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dirs[e.Name()] = true
		layer, ok := packageLayers[e.Name()]
		if !ok {
			t.Errorf("internal/%s maps to no layer", e.Name())
		} else if !known[layer] {
			t.Errorf("internal/%s maps to unknown layer %q", e.Name(), layer)
		}
	}
	for pkg := range packageLayers {
		if !dirs[pkg] {
			t.Errorf("packageLayers names internal/%s, which does not exist", pkg)
		}
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct{ fn, file, want string }{
		{"omnc/internal/sim.(*MAC).progressiveFill", "/src/internal/sim/mac.go", "sim_mac"},
		{"omnc/internal/sim.(*SerialEngine).Run", "/src/internal/sim/engine.go", "sim_engine"},
		{"omnc/internal/gf256.mulAddNibble", "/src/internal/gf256/gf256.go", "gf256"},
		{"omnc/internal/coding.init.0.func1", "/src/internal/coding/field.go", "coding"},
		{"omnc/internal/jobs.(*Queue).Claim", "/src/internal/jobs/queue.go", "jobs"},
		{"omnc.Run", "/src/omnc.go", "protocol"},
		{"main.run", "/src/perfbench/main.go", ""},
		{"runtime.mallocgc", "/go/src/runtime/malloc.go", ""},
		{"encoding/json.Marshal", "/go/src/encoding/json/encode.go", ""},
	}
	for _, c := range cases {
		if got := layerOf(c.fn, c.file); got != c.want {
			t.Errorf("layerOf(%q, %q) = %q, want %q", c.fn, c.file, got, c.want)
		}
	}
}

// TestProfileAttribution profiles a GF(2^8) loop and expects the parser to
// put the most samples under gf256. Under the race detector much of the
// time lands in its runtime, so only the ranking and a floor are checked.
func TestProfileAttribution(t *testing.T) {
	k := gf256.KernelFor(gf256.StrategyAccel)
	dst, src := make([]byte, 1064), make([]byte, 1064)
	for i := range src {
		src[i] = byte(i)
	}
	prof, err := profileSelf(func() {
		for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
			for c := 2; c < 256; c++ {
				k.MulAdd(dst, src, byte(c))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if prof.total < 10 {
		t.Fatalf("only %d samples", prof.total)
	}
	gf := prof.share("gf256")
	if gf < 0.1 {
		t.Errorf("gf256 share %.2f of %d samples, want at least 0.1", gf, prof.total)
	}
	for _, l := range layers {
		if l != "gf256" && l != "runtime" && prof.share(l) >= gf {
			t.Errorf("layer %s share %.2f >= gf256 share %.2f", l, prof.share(l), gf)
		}
	}
	var sum float64
	for _, l := range layers {
		sum += prof.share(l)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %v", sum)
	}
}

// TestMetricNamesMatchBenchmarkJSON ties the printed metric names and units
// to the benchmark definition.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, printed %v", def.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(def.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, printed %v", def.PerLayer, perLayer)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, implemented %s", names, workloadNames())
	}
	for _, d := range perLayer {
		if strings.HasPrefix(d.Name, "cpu.") && d.Name != "cpu.samples" {
			found := false
			for _, l := range layers {
				found = found || d.Name == "cpu."+l
			}
			if !found {
				t.Errorf("%s names no layer", d.Name)
			}
		}
	}
}

func TestNewResultRequiresEveryMetric(t *testing.T) {
	vals := map[string]float64{}
	for _, d := range endToEnd {
		vals[d.Name] = 1
	}
	if _, err := newResult(endToEnd, vals, 1, 0); err != nil {
		t.Fatal(err)
	}
	delete(vals, endToEnd[0].Name)
	if _, err := newResult(endToEnd, vals, 1, 0); err == nil {
		t.Error("a missing metric was accepted")
	}
	vals[endToEnd[0].Name] = 1
	vals["extra"] = 1
	if _, err := newResult(endToEnd, vals, 1, 0); err == nil {
		t.Error("an undefined metric was accepted")
	}
}

func TestHarrellDavis(t *testing.T) {
	// I_x(a, b) against closed forms: I_x(1, 1) = x, I_x(2, 1) = x^2,
	// I_x(1, 3) = 1 - (1-x)^3.
	for _, x := range []float64{0.1, 0.5, 0.77} {
		for _, c := range []struct{ a, b, want float64 }{
			{1, 1, x}, {2, 1, x * x}, {1, 3, 1 - (1-x)*(1-x)*(1-x)},
		} {
			if got := regIncBeta(c.a, c.b, x); math.Abs(got-c.want) > 1e-9 {
				t.Errorf("I_%v(%v, %v) = %v, want %v", x, c.a, c.b, got, c.want)
			}
		}
	}
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := harrellDavis(xs, 0.5); math.Abs(got-50) > 1e-6 {
		t.Errorf("median of 0..100 = %v, want 50", got)
	}
	if got := harrellDavis(xs, 0.9); math.Abs(got-90) > 0.5 {
		t.Errorf("p90 of 0..100 = %v, want about 90", got)
	}
	if got := harrellDavis([]float64{7}, 0.9); got != 7 {
		t.Errorf("p90 of one sample = %v, want 7", got)
	}
}
