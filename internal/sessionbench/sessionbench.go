// Package sessionbench pins the benchmark scenarios shared by the
// BenchmarkSession*/BenchmarkMultiSession* benchmarks and cmd/omnc-bench, so
// the trajectory the repo records in BENCH_<n>.json measures exactly the same
// workloads as
//
//	go test -bench='^Benchmark(Multi)?Session' -benchmem
//
// Every scenario is one Scenario value: a stable name, the family it belongs
// to, and a setup that builds the network outside the timed region. All lists
// them in recorded order. Any change here shifts both surfaces at once; the
// frozen baselines in internal/benchreport stay comparable only as long as
// this file does not change.
package sessionbench

import (
	"fmt"

	"omnc"
	"omnc/internal/coding"
	"omnc/internal/protocol"
	"omnc/internal/topology"
)

// Scenario families, in recorded order. A family is the unit internal/
// benchreport gates: a report carrying any entry of a family carries all of
// them.
const (
	// FamilySession is one protocol's single session on the strip network.
	FamilySession = "Session"
	// FamilyMulti is two sessions of one protocol contending on the shared
	// engine over the strip network.
	FamilyMulti = "MultiSession"
	// FamilyScaled is the parallel-engine scaling ladder (BENCH_4.json on).
	FamilyScaled = "MultiSessionScaled"
	// FamilyScheme is the OMNC session under each coding scheme (BENCH_5.json
	// on).
	FamilyScheme = "SessionScheme"
	// FamilyField is the OMNC session over a non-default coefficient field
	// (BENCH_6.json on).
	FamilyField = "SessionField"
)

// Scenario is one benchmarked workload.
type Scenario struct {
	// Name is the stable benchmark identifier ("SessionOMNC",
	// "MultiSessionScaled/workers=4", ...) used in BENCH_<n>.json and as the
	// Benchmark* suffix.
	Name string
	// Family is the scenario's family (one of the Family constants).
	Family string
	setup  func() (run func() (float64, error), err error)
}

// Setup builds the scenario's network and returns run, which executes one
// measured run and reports its throughput in bytes/s. run fails when a
// session decoded or delivered nothing, so a silent stall never passes as a
// fast benchmark.
func (s Scenario) Setup() (run func() (throughput float64, err error), err error) {
	return s.setup()
}

// All lists every recorded scenario in recorded order: sessions, multi,
// scaled ladder, schemes, fields.
func All() []Scenario {
	contending := []omnc.Endpoints{{Src: 0, Dst: 10}, {Src: 1, Dst: 11}}
	return []Scenario{
		// Each protocol keeps its own seed so the recorded numbers are
		// individually reproducible.
		session(FamilySession, "SessionOMNC", omnc.OMNC(omnc.RateOptions{}), config(41)),
		session(FamilySession, "SessionMORE", omnc.MORE(), config(42)),
		session(FamilySession, "SessionETX", omnc.ETX(), config(43)),
		// Two sessions cross the strip in opposite rows, so they share relay
		// neighbourhoods and genuinely contend.
		multi("MultiSessionOMNC", omnc.OMNC(omnc.RateOptions{}), contending, config(51)),
		multi("MultiSessionETX", omnc.ETX(), contending, config(53)),
		// The serial baseline, then the parallel engine at 2, 4 and 8 workers.
		Scaled(0), Scaled(2), Scaled(4), Scaled(8),
		// The rlnc entry is the in-report reference the others gate against.
		Scheme(coding.SchemeRLNC, 0),
		Scheme(coding.SchemeRLNCE2E, 0),
		Scheme(coding.SchemeRS, 0),
		Field(coding.Field16),
	}
}

// schemeSeed keeps every Scheme scenario on the same placement and loss
// process, so the entries differ only by strategy.
const schemeSeed = 71

// Scheme is the OMNC session on the strip network under an explicit coding
// scheme and redundancy cap. The entries prove the scheme layer rides the
// pooled arena — their allocs/op must stay close to the default RLNC
// session's even though the Reed-Solomon encoder and the verbatim
// ForwardBuffer replace the random encoder and the Recoder on the hot path.
func Scheme(scheme coding.Scheme, redundancy float64) Scenario {
	cfg := config(schemeSeed)
	cfg.Scheme = scheme
	cfg.Redundancy = redundancy
	return session(FamilyScheme, fmt.Sprintf("%s/%s", FamilyScheme, scheme), omnc.OMNC(omnc.RateOptions{}), cfg)
}

// fieldSeed keeps every Field scenario on the same placement and loss
// process, so the entries differ only by coefficient field.
const fieldSeed = 81

// Field is the OMNC session on the strip network coding over field f; the
// air frame grows with the coefficient vector so air times stay faithful.
// The entry proves the field layer rides the pooled arena and the solver
// workspaces — a wider field doubles coefficient traffic but must not add
// per-packet allocations.
func Field(f coding.Field) Scenario {
	cfg := config(fieldSeed)
	cfg.Coding.Field = f
	cfg.AirPacketSize = cfg.Coding.CoeffBytes() + 1024
	return session(FamilyField, fmt.Sprintf("%s/%s", FamilyField, f), omnc.OMNC(omnc.RateOptions{}), cfg)
}

// scaledSeed keeps every rung of the scaling ladder on the same emulation,
// so the serial and parallel entries time identical work.
const scaledSeed = 61

// Scaled is the parallel-engine scaling workload: sixteen sessions
// contending on one shared engine with full-size 1 KB blocks, so
// per-session decode work (which the parallel engine shards) dominates the
// serial MAC bookkeeping. engineWorkers picks the engine: 0 the serial
// reference, N >= 1 the conservative parallel engine. The emulated results
// are bit-identical for every engineWorkers value — only wall-clock varies.
// MORE keeps the measured work purely emulation + coding (no rate-control
// preamble diluting the parallel section).
func Scaled(engineWorkers int) Scenario {
	name := fmt.Sprintf("%s/workers=%d", FamilyScaled, engineWorkers)
	if engineWorkers == 0 {
		name = FamilyScaled + "/serial"
	}
	cfg := protocol.Config{
		// The paper's full 1 KB blocks (decode arithmetic at real cost,
		// unlike the rank-fidelity shortcuts elsewhere) with the generation
		// count bounded so every run does identical work.
		Coding:         coding.Params{GenerationSize: 32, BlockSize: 1024},
		AirPacketSize:  32 + 1024,
		Capacity:       8e4,
		Duration:       600,
		MaxGenerations: 2,
		Seed:           scaledSeed,
		EngineWorkers:  engineWorkers,
		// Align frame completions on a 10 ms grid so the sessions'
		// deliveries share calendar buckets — the parallel engine's unit of
		// concurrency. Identical for every EngineWorkers value.
		TimeQuantum: 1e-2,
	}
	return Scenario{Name: name, Family: FamilyScaled, setup: func() (func() (float64, error), error) {
		nw, sessions, err := scaledNetwork()
		if err != nil {
			return nil, err
		}
		return func() (float64, error) {
			return aggregate(omnc.RunMulti(nw, sessions, omnc.MORE(), cfg))
		}, nil
	}}
}

// session is one single-session scenario on the strip network.
func session(family, name string, proto omnc.Protocol, cfg protocol.Config) Scenario {
	return Scenario{Name: name, Family: family, setup: func() (func() (float64, error), error) {
		nw, src, dst, err := network()
		if err != nil {
			return nil, err
		}
		return func() (float64, error) {
			st, err := omnc.Run(nw, src, dst, proto, cfg)
			if err != nil {
				return 0, err
			}
			if st.GenerationsDecoded == 0 {
				return 0, fmt.Errorf("session decoded nothing")
			}
			return st.Throughput, nil
		}, nil
	}}
}

// multi is one FamilyMulti scenario: sessions of proto contending on the
// shared engine over the strip network.
func multi(name string, proto omnc.Protocol, sessions []omnc.Endpoints, cfg protocol.Config) Scenario {
	return Scenario{Name: name, Family: FamilyMulti, setup: func() (func() (float64, error), error) {
		nw, _, _, err := network()
		if err != nil {
			return nil, err
		}
		return func() (float64, error) {
			return aggregate(omnc.RunMulti(nw, sessions, proto, cfg))
		}, nil
	}}
}

// aggregate is a multi-session run's aggregate throughput; every session
// must deliver something.
func aggregate(ms *protocol.MultiStats, err error) (float64, error) {
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

// scaledNetwork returns the scaling-benchmark topology: sixteen
// radio-isolated copies of the network() strip (stacked 200 m apart, beyond
// the 100 m PHY range), one session crossing each copy. Isolation keeps the
// per-session oracle rate allocations alike, so sessions transmit near
// lockstep and their same-timestamp deliveries form multi-shard rounds —
// the workload shape the parallel engine accelerates.
func scaledNetwork() (nw *topology.Network, sessions []omnc.Endpoints, err error) {
	const strips = 16
	positions := make([]topology.Point, 0, strips*12)
	for s := 0; s < strips; s++ {
		positions = append(positions, strip(float64(s)*200)...)
	}
	nw, err = topology.FromPositions(positions, topology.DefaultPHY())
	if err != nil {
		return nil, nil, err
	}
	for s := 0; s < strips; s++ {
		sessions = append(sessions, omnc.Endpoints{Src: s * 12, Dst: s*12 + 10})
	}
	return nw, sessions, nil
}

// strip is the 12 node positions of one strip at height y: two staggered
// rows of six, 55 m apart along the strip.
func strip(y float64) []topology.Point {
	positions := make([]topology.Point, 0, 12)
	for i := 0; i < 6; i++ {
		positions = append(positions,
			topology.Point{X: float64(i) * 55, Y: y},
			topology.Point{X: float64(i)*55 + 27, Y: y + 45},
		)
	}
	return positions
}

// network returns the fixed session-benchmark topology: a 12-node strip
// with the paper's lossy PHY, wide enough that OMNC selects a multi-relay
// subgraph but small enough that one session run stays cheap. Src and dst
// sit four strip segments apart.
func network() (nw *topology.Network, src, dst int, err error) {
	nw, err = topology.FromPositions(strip(0), topology.DefaultPHY())
	return nw, 0, 10, err
}

// config bounds the session by decoded generations, not wall-clock, so
// every benchmark iteration does identical coding work.
func config(seed int64) protocol.Config {
	return protocol.Config{
		Coding:         coding.Params{GenerationSize: 16, BlockSize: 256},
		AirPacketSize:  16 + 1024,
		Capacity:       2e4,
		Duration:       600,
		MaxGenerations: 4,
		Seed:           seed,
	}
}
