// Benchmarks regenerating every table and figure of the paper's evaluation
// (see EXPERIMENTS.md for the measured-vs-paper comparison) plus the
// ablations DESIGN.md calls out. Each figure bench runs a scaled-down
// version of the corresponding experiment and reports the headline numbers
// as custom metrics, so
//
//	go test -bench=. -benchmem
//
// both exercises the full pipeline and prints the reproduced quantities.
package omnc_test

import (
	"fmt"
	"math/rand"
	"testing"

	"omnc/internal/coding"
	"omnc/internal/core"
	"omnc/internal/experiments"
	"omnc/internal/metrics"
	"omnc/internal/protocol"
	"omnc/internal/sessionbench"
	"omnc/internal/sim"
	"omnc/internal/topology"
)

// benchConfig is a small but representative comparison experiment: the
// paper's topology and air frames, few sessions, rank-fidelity payloads.
func benchConfig(seed int64) experiments.Config {
	return experiments.Config{
		Nodes:               200,
		Density:             6,
		Sessions:            3,
		MinHops:             4,
		MaxHops:             10,
		Duration:            150,
		Capacity:            2e4,
		CBRRate:             1e4,
		Coding:              coding.Params{GenerationSize: 40, BlockSize: 8},
		AirPacketSize:       40 + 1024,
		QueueSampleInterval: 0.5,
		Seed:                seed,
	}
}

func meanOf(cdfs map[string]*metrics.CDF, name string) float64 {
	if c, ok := cdfs[name]; ok && c.Len() > 0 {
		return c.Mean()
	}
	return 0
}

// BenchmarkFig1Convergence regenerates Fig. 1: the distributed rate-control
// algorithm on the sample topology. Reports iterations to convergence.
func BenchmarkFig1Convergence(b *testing.B) {
	var iters float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1Convergence(experiments.Fig1Config{})
		if err != nil {
			b.Fatal(err)
		}
		iters = float64(res.Iterations)
	}
	b.ReportMetric(iters, "iterations")
}

// BenchmarkFig2Lossy regenerates Fig. 2 (left): throughput gains over ETX in
// the lossy network. Reports the mean gains (paper: OMNC 2.45, MORE 1.67,
// oldMORE 1.12).
func BenchmarkFig2Lossy(b *testing.B) {
	var omncGain, moreGain, oldGain float64
	for i := 0; i < b.N; i++ {
		c, err := experiments.RunComparison(benchConfig(11))
		if err != nil {
			b.Fatal(err)
		}
		gains := c.GainCDFs()
		omncGain = meanOf(gains, experiments.ProtoOMNC)
		moreGain = meanOf(gains, experiments.ProtoMORE)
		oldGain = meanOf(gains, experiments.ProtoOldMORE)
	}
	b.ReportMetric(omncGain, "omnc-gain")
	b.ReportMetric(moreGain, "more-gain")
	b.ReportMetric(oldGain, "oldmore-gain")
}

// BenchmarkFig2HighQuality regenerates Fig. 2 (right): gains when transmit
// power raises mean link quality to ~0.91 (paper: OMNC 1.12, MORE and
// oldMORE below 1).
func BenchmarkFig2HighQuality(b *testing.B) {
	cfg := benchConfig(12)
	cfg.MeanQuality = 0.91
	var omncGain, moreGain float64
	for i := 0; i < b.N; i++ {
		c, err := experiments.RunComparison(cfg)
		if err != nil {
			b.Fatal(err)
		}
		gains := c.GainCDFs()
		omncGain = meanOf(gains, experiments.ProtoOMNC)
		moreGain = meanOf(gains, experiments.ProtoMORE)
	}
	b.ReportMetric(omncGain, "omnc-gain")
	b.ReportMetric(moreGain, "more-gain")
}

// BenchmarkFig3QueueSize regenerates Fig. 3: time-averaged queue sizes
// (paper: OMNC 0.63, MORE 22).
func BenchmarkFig3QueueSize(b *testing.B) {
	cfg := benchConfig(13)
	cfg.Protocols = []string{experiments.ProtoOMNC, experiments.ProtoMORE}
	var omncQ, moreQ float64
	for i := 0; i < b.N; i++ {
		c, err := experiments.RunComparison(cfg)
		if err != nil {
			b.Fatal(err)
		}
		queues := c.QueueCDFs()
		omncQ = meanOf(queues, experiments.ProtoOMNC)
		moreQ = meanOf(queues, experiments.ProtoMORE)
	}
	b.ReportMetric(omncQ, "omnc-queue")
	b.ReportMetric(moreQ, "more-queue")
}

// BenchmarkFig4Utility regenerates Fig. 4: node and path utility ratios
// (paper: oldMORE prunes aggressively; OMNC and MORE use nearly all nodes).
func BenchmarkFig4Utility(b *testing.B) {
	cfg := benchConfig(14)
	cfg.Protocols = []string{experiments.ProtoOMNC, experiments.ProtoOldMORE}
	var omncNode, oldNode, omncPath, oldPath float64
	for i := 0; i < b.N; i++ {
		c, err := experiments.RunComparison(cfg)
		if err != nil {
			b.Fatal(err)
		}
		omncNode = meanOf(c.NodeUtilityCDFs(), experiments.ProtoOMNC)
		oldNode = meanOf(c.NodeUtilityCDFs(), experiments.ProtoOldMORE)
		omncPath = meanOf(c.PathUtilityCDFs(), experiments.ProtoOMNC)
		oldPath = meanOf(c.PathUtilityCDFs(), experiments.ProtoOldMORE)
	}
	b.ReportMetric(omncNode, "omnc-node-util")
	b.ReportMetric(oldNode, "oldmore-node-util")
	b.ReportMetric(omncPath, "omnc-path-util")
	b.ReportMetric(oldPath, "oldmore-path-util")
}

// BenchmarkRunComparisonWorkers measures the wall-clock scaling of the
// parallel trial executor on one multi-session comparison: the same
// experiment (identical output, bit for bit) at 1, 2 and 4 workers. On a
// 4+ core machine the workers=4 case should finish the sweep at least 2x
// faster than workers=1; compare the ns/op of the sub-benchmarks:
//
//	go test -bench BenchmarkRunComparisonWorkers -benchtime 1x
func BenchmarkRunComparisonWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := benchConfig(31)
			cfg.Sessions = 8
			cfg.Workers = workers
			var tp float64
			for i := 0; i < b.N; i++ {
				c, err := experiments.RunComparison(cfg)
				if err != nil {
					b.Fatal(err)
				}
				tp = meanOf(c.GainCDFs(), experiments.ProtoOMNC)
			}
			b.ReportMetric(tp, "omnc-gain")
			b.ReportMetric(float64(cfg.Sessions)/b.Elapsed().Seconds()*float64(b.N), "sessions/s")
		})
	}
}

// benchScenario measures one scenario of the trajectory the repo records in
// BENCH_<n>.json — single sessions per protocol (node selection, rate
// control, coding, MAC end to end), the two-session multi-unicast
// contention, the parallel-engine scaling ladder, and the coding-scheme
// sessions — with allocs/op and B/op reported. The scenarios live in
// internal/sessionbench so cmd/omnc-bench records exactly these workloads;
// the network is built outside the timed region. Compare ns/op across the
// MultiSessionScaled ladder for the serial-vs-parallel speedup; its bytes/s
// must not move.
func benchScenario(b *testing.B, name string) {
	var run func() (float64, error)
	for _, s := range sessionbench.All() {
		if s.Name == name {
			var err error
			if run, err = s.Setup(); err != nil {
				b.Fatal(err)
			}
			break
		}
	}
	if run == nil {
		b.Fatalf("no scenario %s", name)
	}
	b.ResetTimer()
	b.ReportAllocs()
	var tp float64
	for i := 0; i < b.N; i++ {
		var err error
		if tp, err = run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(tp, "bytes/s")
}

func BenchmarkSessionOMNC(b *testing.B) { benchScenario(b, "SessionOMNC") }

func BenchmarkSessionMORE(b *testing.B) { benchScenario(b, "SessionMORE") }

func BenchmarkSessionETX(b *testing.B) { benchScenario(b, "SessionETX") }

func BenchmarkSessionSchemeRLNC(b *testing.B) { benchScenario(b, "SessionScheme/rlnc") }

func BenchmarkSessionSchemeRLNCE2E(b *testing.B) { benchScenario(b, "SessionScheme/rlnc-e2e") }

func BenchmarkSessionSchemeRS(b *testing.B) { benchScenario(b, "SessionScheme/rs") }

func BenchmarkMultiSessionOMNC(b *testing.B) { benchScenario(b, "MultiSessionOMNC") }

func BenchmarkMultiSessionETX(b *testing.B) { benchScenario(b, "MultiSessionETX") }

func BenchmarkMultiSessionScaledSerial(b *testing.B) { benchScenario(b, "MultiSessionScaled/serial") }

func BenchmarkMultiSessionScaledWorkers2(b *testing.B) {
	benchScenario(b, "MultiSessionScaled/workers=2")
}

func BenchmarkMultiSessionScaledWorkers4(b *testing.B) {
	benchScenario(b, "MultiSessionScaled/workers=4")
}

func BenchmarkMultiSessionScaledWorkers8(b *testing.B) {
	benchScenario(b, "MultiSessionScaled/workers=8")
}

// BenchmarkTable1RateControl measures the distributed rate-control
// algorithm itself (Table 1) on a random selected subgraph.
func BenchmarkTable1RateControl(b *testing.B) {
	nw, err := topology.Generate(topology.Config{Nodes: 200, Density: 6, Seed: 15})
	if err != nil {
		b.Fatal(err)
	}
	sg := firstSession(b, nw)
	b.ResetTimer()
	var iters float64
	for i := 0; i < b.N; i++ {
		res, err := core.NewRateController(sg, core.Options{Capacity: 2e4}).Run()
		if err != nil {
			b.Fatal(err)
		}
		iters = float64(res.Iterations)
	}
	b.ReportMetric(iters, "iterations")
}

// BenchmarkSUnicastLP measures the centralized simplex solution of the
// sUnicast program on the same subgraph (the Sec. 5 optimized-throughput
// reference).
func BenchmarkSUnicastLP(b *testing.B) {
	nw, err := topology.Generate(topology.Config{Nodes: 200, Density: 6, Seed: 15})
	if err != nil {
		b.Fatal(err)
	}
	sg := firstSession(b, nw)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveLP(sg, 2e4); err != nil {
			b.Fatal(err)
		}
	}
}

func firstSession(b *testing.B, nw *topology.Network) *core.Subgraph {
	b.Helper()
	for dst := 1; dst < nw.Size(); dst++ {
		sg, err := core.SelectNodes(nw, 0, dst)
		if err == nil && sg.Size() >= 8 {
			return sg
		}
	}
	b.Fatal("no usable session on the benchmark topology")
	return nil
}

// BenchmarkCodingAccel encodes and progressively decodes one full
// generation of the paper's size (40 blocks x 1 KB) on the production
// GF(2^8) kernel — the coding-level side of the Sec. 4 accelerated-coding
// claim, whose kernel-level side is internal/gf256's BenchmarkMulAdd*.
func BenchmarkCodingAccel(b *testing.B) {
	params := coding.Params{GenerationSize: 40, BlockSize: 1024}
	rng := rand.New(rand.NewSource(4))
	data := make([]byte, 40*1024)
	rng.Read(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen, err := coding.NewGeneration(0, params, data)
		if err != nil {
			b.Fatal(err)
		}
		enc := coding.NewEncoder(gen, rng)
		dec, err := coding.NewDecoder(0, params)
		if err != nil {
			b.Fatal(err)
		}
		for !dec.Decoded() {
			if _, err := dec.Add(enc.Next()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationUtilization sweeps OMNC's utilization target under the
// CSMA channel: rescaling the optimized rates below the constraint boundary
// trades rate for interference (see protocol.CSMAUtilization).
func BenchmarkAblationUtilization(b *testing.B) {
	nw, err := topology.Generate(topology.Config{Nodes: 150, Density: 6, Seed: 21})
	if err != nil {
		b.Fatal(err)
	}
	sg := firstSession(b, nw)
	src, dst := sg.Nodes[sg.Src], sg.Nodes[sg.Dst]
	for _, eta := range []float64{0.25, 0.5, 0.75, 1.0} {
		eta := eta
		b.Run(utilName(eta), func(b *testing.B) {
			cfg := protocol.Config{
				Coding:        coding.Params{GenerationSize: 40, BlockSize: 8},
				AirPacketSize: 40 + 1024,
				Capacity:      2e4,
				Duration:      150,
				Seed:          5,
				MAC:           sim.ModeCSMA,
			}
			var tp float64
			for i := 0; i < b.N; i++ {
				st, err := protocol.Run(nw, src, dst,
					protocol.OMNCAtUtilization(core.Options{}, eta), cfg)
				if err != nil {
					b.Fatal(err)
				}
				tp = st.Throughput
			}
			b.ReportMetric(tp, "bytes/s")
		})
	}
}

func utilName(eta float64) string {
	switch eta {
	case 0.25:
		return "eta=0.25"
	case 0.5:
		return "eta=0.50"
	case 0.75:
		return "eta=0.75"
	default:
		return "eta=1.00"
	}
}

// BenchmarkAblationMACMode contrasts the oracle scheduler with the CSMA
// contention model on one OMNC session (the MAC-sensitivity ablation of
// DESIGN.md).
func BenchmarkAblationMACMode(b *testing.B) {
	nw, err := topology.Generate(topology.Config{Nodes: 150, Density: 6, Seed: 22})
	if err != nil {
		b.Fatal(err)
	}
	sg := firstSession(b, nw)
	src, dst := sg.Nodes[sg.Src], sg.Nodes[sg.Dst]
	for _, mode := range []sim.Mode{sim.ModeOracle, sim.ModeCSMA} {
		mode := mode
		name := "oracle"
		if mode == sim.ModeCSMA {
			name = "csma"
		}
		b.Run(name, func(b *testing.B) {
			cfg := protocol.Config{
				Coding:        coding.Params{GenerationSize: 40, BlockSize: 8},
				AirPacketSize: 40 + 1024,
				Capacity:      2e4,
				Duration:      150,
				Seed:          6,
				MAC:           mode,
			}
			var tp float64
			for i := 0; i < b.N; i++ {
				st, err := protocol.Run(nw, src, dst, protocol.OMNC(core.Options{}), cfg)
				if err != nil {
					b.Fatal(err)
				}
				tp = st.Throughput
			}
			b.ReportMetric(tp, "bytes/s")
		})
	}
}

// BenchmarkAblationPayloadFidelity verifies that shrinking BlockSize (rank
// fidelity) does not change protocol behaviour, only arithmetic cost —
// the substitution QuickConfig relies on.
func BenchmarkAblationPayloadFidelity(b *testing.B) {
	nw, err := topology.Generate(topology.Config{Nodes: 150, Density: 6, Seed: 23})
	if err != nil {
		b.Fatal(err)
	}
	sg := firstSession(b, nw)
	src, dst := sg.Nodes[sg.Src], sg.Nodes[sg.Dst]
	for _, blockSize := range []int{8, 1024} {
		blockSize := blockSize
		name := "rank-fidelity"
		if blockSize == 1024 {
			name = "full-payload"
		}
		b.Run(name, func(b *testing.B) {
			cfg := protocol.Config{
				Coding:        coding.Params{GenerationSize: 40, BlockSize: blockSize},
				AirPacketSize: 40 + 1024,
				Capacity:      2e4,
				Duration:      100,
				Seed:          9,
			}
			var tp float64
			for i := 0; i < b.N; i++ {
				st, err := protocol.Run(nw, src, dst, protocol.OMNC(core.Options{}), cfg)
				if err != nil {
					b.Fatal(err)
				}
				tp = st.Throughput
			}
			b.ReportMetric(tp, "bytes/s")
		})
	}
}
