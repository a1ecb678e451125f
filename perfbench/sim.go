package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"time"

	"omnc"
	"omnc/internal/experiments"
	"omnc/internal/graph"
)

// quick is the default omnc-fig comparison. The catalog and the sessions
// follow it — density, hop constraint and session parameters — so that a
// change to that default reaches the benchmark, except that deployments
// have deployNodes nodes where it deploys 300.
var quick = experiments.QuickConfig(0)

// Catalog shape. Every deployment uses the default lossy PHY.
const (
	deployNodes = 200

	paperDeployments = 3 // paper-quick and paper-full share these pairs
	paperPairs       = 4 // per deployment

	contentionDeployments = 1 // the first paper deployment
	contentionSets        = 2 // session sets per deployment
	contentionSessions    = 4 // sessions per set

	// fullDuration bounds the emulated seconds of paper-full, whose ops
	// would otherwise take seconds each.
	fullDuration = 60
)

// protocolNames and protocols are index-aligned: the order every pair runs
// its four sessions in.
var protocolNames = [4]string{"omnc", "more", "oldmore", "etx"}

func protocols() [4]omnc.Protocol {
	return [4]omnc.Protocol{omnc.OMNC(omnc.RateOptions{}), omnc.MORE(), omnc.OldMORE(), omnc.ETX()}
}

// quickConfig is the session of the default omnc-fig comparison.
func quickConfig() omnc.SessionConfig {
	return omnc.SessionConfig{
		Coding:              quick.Coding,
		AirPacketSize:       quick.AirPacketSize,
		Capacity:            quick.Capacity,
		CBRRate:             quick.CBRRate,
		Duration:            quick.Duration,
		QueueSampleInterval: quick.QueueSampleInterval,
	}
}

// fullConfig is quickConfig with the paper's 1 KB blocks.
func fullConfig() omnc.SessionConfig {
	cfg := quickConfig()
	cfg.Coding.BlockSize = 1024
	cfg.Duration = fullDuration
	return cfg
}

// contentionConfig is the -fig multi cell session: quickConfig over the
// same 200 emulated seconds, without queue sampling.
func contentionConfig() omnc.SessionConfig {
	cfg := quickConfig()
	cfg.QueueSampleInterval = 0
	return cfg
}

// pairCase is one catalog endpoint pair with its fixed session seed.
type pairCase struct {
	key      string
	net      *omnc.Network
	src, dst int
	seed     int64
}

// setCase is one catalog set of contending sessions.
type setCase struct {
	key      string
	net      *omnc.Network
	sessions []omnc.Endpoints
	seed     int64
}

// catalog is the fixed input universe of the simulation workloads.
type catalog struct {
	pairs []pairCase
	sets  []setCase
}

// buildCatalog generates the deployments and places the endpoints. It is
// the set-up work of the simulation workloads and a pure function of the
// constants above.
func buildCatalog(withSets bool) (*catalog, error) {
	c := &catalog{}
	for d := 0; d < paperDeployments; d++ {
		nw, err := omnc.GenerateNetwork(deployNodes, quick.Density, int64(7001+d))
		if err != nil {
			return nil, fmt.Errorf("deployment %d: %w", d, err)
		}
		eps, err := placeEndpoints(nw, rand.New(rand.NewSource(int64(9001+d))), paperPairs)
		if err != nil {
			return nil, fmt.Errorf("deployment %d: %w", d, err)
		}
		for k, ep := range eps {
			c.pairs = append(c.pairs, pairCase{
				key: fmt.Sprintf("d%d/p%d", d, k), net: nw, src: ep.Src, dst: ep.Dst,
				seed: int64(1_000_000 + 1000*d + k),
			})
		}
		if !withSets || d >= contentionDeployments {
			continue
		}
		rng := rand.New(rand.NewSource(int64(8001 + d)))
		for s := 0; s < contentionSets; s++ {
			eps, err := placeEndpoints(nw, rng, contentionSessions)
			if err != nil {
				return nil, fmt.Errorf("deployment %d set %d: %w", d, s, err)
			}
			c.sets = append(c.sets, setCase{
				key: fmt.Sprintf("d%d/s%d", d, s), net: nw, sessions: eps,
				seed: int64(2_000_000 + 1000*d + s),
			})
		}
	}
	return c, nil
}

// placeEndpoints samples count distinct feasible pairs under the hop
// constraint, the way the experiment harness places sessions.
func placeEndpoints(nw *omnc.Network, rng *rand.Rand, count int) ([]omnc.Endpoints, error) {
	adj := make([][]int, nw.Size())
	for i := range adj {
		adj[i] = nw.Neighbors(i)
	}
	seen := make(map[omnc.Endpoints]bool, count)
	var out []omnc.Endpoints
	for attempt := 0; len(out) < count; attempt++ {
		if attempt > 1000*count {
			return nil, fmt.Errorf("only %d of %d feasible pairs found", len(out), count)
		}
		ep := omnc.Endpoints{Src: rng.Intn(nw.Size()), Dst: rng.Intn(nw.Size())}
		if ep.Src == ep.Dst || seen[ep] {
			continue
		}
		if h := graph.HopCounts(adj, ep.Src)[ep.Dst]; h < quick.MinHops || h > quick.MaxHops {
			continue
		}
		if _, err := omnc.SelectForwarders(nw, ep.Src, ep.Dst); err != nil {
			continue
		}
		seen[ep] = true
		out = append(out, ep)
	}
	return out, nil
}

// simOp is one op of a simulation workload: a pair under one protocol, or
// one session set (set >= 0).
type simOp struct {
	key   string
	pair  int
	proto int
	set   int
}

// pairOps lists the pair ops of the seed's order: the pairs shuffled by the
// seed, each running the four protocols in turn.
func pairOps(c *catalog, seed int64) []simOp {
	var ops []simOp
	for _, p := range rand.New(rand.NewSource(seed)).Perm(len(c.pairs)) {
		for proto, name := range protocolNames {
			ops = append(ops, simOp{key: c.pairs[p].key + "/" + name, pair: p, proto: proto, set: -1})
		}
	}
	return ops
}

// setOps lists the session-set ops of the seed's order.
func setOps(c *catalog, seed int64) []simOp {
	var ops []simOp
	for _, s := range rand.New(rand.NewSource(seed)).Perm(len(c.sets)) {
		ops = append(ops, simOp{key: c.sets[s].key, set: s})
	}
	return ops
}

// simWorkload describes one simulation workload.
type simWorkload struct {
	name  string
	cfg   omnc.SessionConfig
	multi bool // ops are session sets under RunMulti
}

// simWorkloads are the simulation workloads.
var simWorkloads = []simWorkload{
	{name: "paper-quick", cfg: quickConfig()},
	{name: "paper-full", cfg: fullConfig()},
	{name: "contention", cfg: contentionConfig(), multi: true},
}

// simInstance is a set-up simulation workload.
type simInstance struct {
	w      simWorkload
	cat    *catalog
	list   []simOp
	protos [4]omnc.Protocol
	refs   map[string]string
}

// setup builds the catalog and the seed's op list and runs one warm-up op;
// it returns the instance and the CPU time all that took.
func (w simWorkload) setup(e *env) (instance, time.Duration, error) {
	start := cpuTime()
	cat, err := buildCatalog(w.multi)
	if err != nil {
		return nil, 0, err
	}
	s := &simInstance{w: w, cat: cat, protos: protocols(), refs: e.refs[w.name]}
	if w.multi {
		s.list = setOps(cat, e.seed)
	} else {
		s.list = pairOps(cat, e.seed)
	}
	// The warm-up op is the catalog's first entry, the same for every seed.
	warm := simOp{key: cat.pairs[0].key + "/omnc", set: -1}
	if w.multi {
		warm = simOp{key: cat.sets[0].key, set: 0}
	}
	if err := s.check(warm); err != nil {
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return s, cpuTime() - start, nil
}

func (s *simInstance) keys() []string {
	out := make([]string, len(s.list))
	for i, op := range s.list {
		out[i] = op.key
	}
	return out
}

func (s *simInstance) span(i int) string {
	if op := s.list[i]; op.set < 0 {
		return "omnc.Run/" + protocolNames[op.proto]
	}
	return "omnc.RunMulti/omnc"
}

func (s *simInstance) run(i int) error { return s.check(s.list[i]) }
func (s *simInstance) reset() error    { return nil }
func (s *simInstance) close() error    { return nil }

// runOp executes one op and returns its result digest.
func (s *simInstance) runOp(op simOp) (string, error) {
	cfg := s.w.cfg
	if op.set >= 0 {
		sc := s.cat.sets[op.set]
		cfg.Seed = sc.seed
		ms, err := omnc.RunMulti(sc.net, sc.sessions, s.protos[0], cfg)
		if err != nil {
			return "", err
		}
		return multiDigest(ms), nil
	}
	pc := s.cat.pairs[op.pair]
	cfg.Seed = pc.seed
	st, err := omnc.Run(pc.net, pc.src, pc.dst, s.protos[op.proto], cfg)
	if err != nil {
		return "", err
	}
	return sessionDigest(st), nil
}

// check runs op and compares its digest with the reference.
func (s *simInstance) check(op simOp) error {
	got, err := s.runOp(op)
	if err != nil {
		return fmt.Errorf("%s: %w", op.key, err)
	}
	if want, ok := s.refs[op.key]; !ok {
		return fmt.Errorf("%s: no reference digest", op.key)
	} else if got != want {
		return fmt.Errorf("%s: result digest %s, reference %s", op.key, got, want)
	}
	return nil
}

// sessionDigest fingerprints a session's statistics (the observability
// report excluded: it is not part of the result).
func sessionDigest(st *omnc.SessionStats) string {
	h := sha256.New()
	writeStats(h, st)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// multiDigest fingerprints a multi-session run.
func multiDigest(ms *omnc.MultiStats) string {
	h := sha256.New()
	for _, st := range ms.PerSession {
		writeStats(h, st)
	}
	fmt.Fprintf(h, "%v %v\n", ms.AggregateThroughput, ms.JainFairness)
	for _, err := range ms.SessionErrors {
		fmt.Fprintf(h, "%v\n", err)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// writeStats prints every field of st; %v prints floats in their shortest
// exact form, so equal output means bit-identical statistics.
func writeStats(w io.Writer, st *omnc.SessionStats) {
	c := *st
	c.Report = nil
	fmt.Fprintf(w, "%+v\n", c)
}
