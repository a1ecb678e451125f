package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"omnc"
	"omnc/internal/coding"
	"omnc/internal/core"
	"omnc/internal/gf16"
	"omnc/internal/gf256"
	"omnc/internal/jobs"
	"omnc/internal/sim"
	"omnc/internal/topology"
)

// Harness sizes.
const (
	harnessPairs   = 3                      // session harness pairs
	corePairs      = 3                      // pairs timed through selection, rate control and LP
	kernelBudget   = 150 * time.Millisecond // per GF kernel / coding / engine harness
	queueJobs      = 200                    // jobs through Submit/Claim/Done
	landResults    = 50                     // results landed in the store
	replayReps     = 5                      // journal replays
	serveHarnessOn = 3 * time.Second        // serve harness run
)

// measureLayers runs the per-layer harnesses into vals, recording their
// spans in tr, and returns the ops the serve harness attempted and failed.
func measureLayers(e *env, w workload, tr *tracer, vals map[string]float64) (attempted, failed int, err error) {
	cat, err := buildCatalog(true)
	if err != nil {
		return 0, 0, err
	}
	var pairs []pairCase
	for _, op := range pairOps(cat, e.seed) {
		if op.proto == 0 {
			pairs = append(pairs, cat.pairs[op.pair])
		}
	}
	var sets []setCase
	for _, op := range setOps(cat, e.seed) {
		sets = append(sets, cat.sets[op.set])
	}
	cfg := w.session

	rng := rand.New(rand.NewSource(e.seed))
	if err := topologyHarness(e.seed, tr, vals); err != nil {
		return 0, 0, err
	}
	if err := coreHarness(pairs[:corePairs], sets, tr, vals); err != nil {
		return 0, 0, err
	}
	if err := sessionHarness(pairs[:harnessPairs], cfg, tr, vals); err != nil {
		return 0, 0, err
	}
	if err := codingHarness(cfg.Coding, rng, tr, vals); err != nil {
		return 0, 0, err
	}
	gfHarness(rng, tr, vals)
	engineHarness(rng, tr, vals)
	if err := jobsHarness(e, tr, vals); err != nil {
		return 0, 0, err
	}
	di, err := startServeHarness(e)
	if err != nil {
		return 0, 0, fmt.Errorf("serve harness: %w", err)
	}
	res := di.pass(serveHarnessOn, tr)
	if err := di.close(); err != nil {
		return 0, 0, err
	}
	for _, name := range []string{"submit", "exec", "notify", "artifact", "queue_wait"} {
		d := tr.durations("serve." + name)
		if len(d) == 0 {
			return 0, 0, fmt.Errorf("no serve.%s spans", name)
		}
		vals["serve."+name+"_ms"] = median(d)
	}
	return res.attempted, res.failed, nil
}

// timed runs f inside a span and returns its duration in ms.
func timed(tr *tracer, name string, f func() error) (float64, error) {
	t0 := time.Now()
	sp := tr.begin(name, 0)
	err := f()
	tr.end(sp)
	return msSince(t0), err
}

func topologyHarness(seed int64, tr *tracer, vals map[string]float64) error {
	var ms []float64
	for i := int64(0); i < 5; i++ {
		d, err := timed(tr, "topology.Generate", func() error {
			_, err := topology.Generate(topology.Config{
				Nodes: deployNodes, Density: quick.Density, PHY: topology.DefaultPHY(), Seed: seed*16 + i,
			})
			return err
		})
		if err != nil {
			return err
		}
		ms = append(ms, d)
	}
	vals["topology.generate_ms"] = median(ms)
	return nil
}

func coreHarness(pairs []pairCase, sets []setCase, tr *tracer, vals map[string]float64) error {
	var sel, rate, lp, iters []float64
	for _, p := range pairs {
		var sg *core.Subgraph
		d, err := timed(tr, "core.SelectNodes", func() (err error) {
			sg, err = core.SelectNodes(p.net, p.src, p.dst)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", p.key, err)
		}
		sel = append(sel, d)
		var res *core.Result
		if d, err = timed(tr, "core.RateController.Run", func() (err error) {
			res, err = core.NewRateController(sg, core.Options{}).Run()
			return err
		}); err != nil {
			return fmt.Errorf("%s: %w", p.key, err)
		}
		rate = append(rate, d)
		iters = append(iters, float64(res.Iterations))
		if d, err = timed(tr, "core.SolveLP", func() error {
			_, err := core.SolveLP(sg, quickConfig().Capacity)
			return err
		}); err != nil {
			return fmt.Errorf("%s: %w", p.key, err)
		}
		lp = append(lp, d)
	}
	var joint []float64
	for _, s := range sets {
		multi := make([]core.MultiSession, len(s.sessions))
		for i, ep := range s.sessions {
			sg, err := core.SelectNodes(s.net, ep.Src, ep.Dst)
			if err != nil {
				return fmt.Errorf("%s: %w", s.key, err)
			}
			multi[i] = core.MultiSession{Subgraph: sg}
		}
		d, err := timed(tr, "core.MultiRateController.Run", func() error {
			mc, err := core.NewMultiRateController(multi, core.Options{})
			if err == nil {
				_, err = mc.Run()
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", s.key, err)
		}
		joint = append(joint, d)
	}
	vals["core.select_ms"] = median(sel)
	vals["core.ratecontrol_ms"] = median(rate)
	vals["core.rate_iterations"] = mean(iters)
	vals["lp.solve_ms"] = median(lp)
	vals["core.joint_ratecontrol_ms"] = median(joint)
	return nil
}

// sessionHarness runs every protocol on each pair with the run report on.
func sessionHarness(pairs []pairCase, cfg omnc.SessionConfig, tr *tracer, vals map[string]float64) error {
	cfg.Report = true
	protos := protocols()
	var (
		perProto          [4][]float64
		goodput, gain     []float64
		innov, total, txs float64
		hostSec           float64
	)
	for _, p := range pairs {
		var tp [4]float64
		for i, proto := range protos {
			c := cfg
			c.Seed = p.seed
			var st *omnc.SessionStats
			d, err := timed(tr, "harness.omnc.Run/"+protocolNames[i], func() (err error) {
				st, err = omnc.Run(p.net, p.src, p.dst, proto, c)
				return err
			})
			if err != nil {
				return fmt.Errorf("%s/%s: %w", p.key, protocolNames[i], err)
			}
			if st.Report == nil {
				return fmt.Errorf("%s/%s: no run report", p.key, protocolNames[i])
			}
			perProto[i] = append(perProto[i], d)
			tp[i] = st.Throughput
			txs += float64(st.Report.TotalTx())
			hostSec += d / 1e3
			if protocolNames[i] != "etx" {
				innov += float64(st.InnovativeReceived)
				total += float64(st.TotalReceived)
			}
		}
		goodput = append(goodput, tp[0])
		if tp[3] > 0 {
			gain = append(gain, tp[0]/tp[3])
		}
	}
	for i, name := range protocolNames {
		vals["session."+name+"_ms"] = median(perProto[i])
	}
	vals["session.goodput_Bps"] = mean(goodput)
	vals["session.omnc_gain_vs_etx"] = mean(gain)
	vals["coding.innovative_ratio"] = innov / total
	vals["sim.frames_per_host_s"] = txs / hostSec
	return nil
}

// codingHarness times Encoder.Next -> Decoder.Add over whole generations
// and Recoder.Next from a full-rank buffer, at params.
func codingHarness(params coding.Params, rng *rand.Rand, tr *tracer, vals map[string]float64) error {
	data := make([]byte, params.GenerationSize*params.BlockSize)
	rng.Read(data)
	gen, err := coding.NewGeneration(0, params, data)
	if err != nil {
		return err
	}
	enc := coding.NewEncoder(gen, rng)

	var calls int
	var busy time.Duration
	for busy < kernelBudget {
		dec, err := coding.NewDecoder(0, params)
		if err != nil {
			return err
		}
		t0 := time.Now()
		sp := tr.begin("coding.decode_generation", 0)
		for !dec.Decoded() {
			pk := enc.Next()
			_, err = dec.Add(pk)
			pk.Release()
			calls++
			if err != nil {
				break
			}
		}
		tr.end(sp)
		busy += time.Since(t0)
		dec.Close()
		if err != nil {
			return err
		}
	}
	vals["coding.decoder_add_us"] = float64(busy.Microseconds()) / float64(calls)

	rec, err := coding.NewRecoder(0, params, rng)
	if err != nil {
		return err
	}
	defer rec.Close()
	for !rec.Full() {
		pk := enc.Next()
		_, err := rec.Add(pk)
		pk.Release()
		if err != nil {
			return err
		}
	}
	calls, busy = 0, 0
	for busy < kernelBudget {
		t0 := time.Now()
		sp := tr.begin("coding.recoder_batch", 0)
		for i := 0; i < 64; i++ {
			rec.Next().Release()
		}
		tr.end(sp)
		busy += time.Since(t0)
		calls += 64
	}
	vals["coding.recoder_next_us"] = float64(busy.Microseconds()) / float64(calls)
	return nil
}

// gfHarness times the production multiply-add kernels at the row lengths
// the workloads use: 40 coefficients + 1 KB (GF(2^8) full), 40 + 8 bytes
// (GF(2^8) rank fidelity) and 80 + 1 KB (GF(2^16)).
func gfHarness(rng *rand.Rand, tr *tracer, vals map[string]float64) {
	k := gf256.KernelFor(gf256.StrategyAccel)
	rows := func(n int) ([]byte, []byte) {
		dst, src := make([]byte, n), make([]byte, n)
		rng.Read(dst)
		rng.Read(src)
		return dst, src
	}
	// bench calls f with coefficients 2..255 in batches until the budget is
	// spent and returns the mean ns per call.
	bench := func(name string, f func(c int)) float64 {
		var calls int
		var busy time.Duration
		for busy < kernelBudget {
			t0 := time.Now()
			sp := tr.begin(name, 0)
			for c := 2; c < 256; c++ {
				f(c)
			}
			tr.end(sp)
			busy += time.Since(t0)
			calls += 254
		}
		return float64(busy.Nanoseconds()) / float64(calls)
	}
	dst, src := rows(40 + 1024)
	ns := bench("gf256.MulAdd/1064", func(c int) { k.MulAdd(dst, src, byte(c)) })
	vals["gf256.muladd_MBps.full"] = float64(len(dst)) / ns * 1e3
	dst, src = rows(40 + 8)
	vals["gf256.muladd_ns_per_call.quick"] = bench("gf256.MulAdd/48", func(c int) { k.MulAdd(dst, src, byte(c)) })
	dst, src = rows(80 + 1024)
	ns = bench("gf16.MulAdd/1104", func(c int) { gf16.MulAdd(dst, src, uint16(c*257)) })
	vals["gf16.muladd_MBps.full"] = float64(len(dst)) / ns * 1e3
}

// engineHarness runs 64 self-rescheduling event chains on the serial
// engine, about the calendar depth of a session.
func engineHarness(rng *rand.Rand, tr *tracer, vals map[string]float64) {
	var events int
	var busy time.Duration
	for busy < kernelBudget {
		eng := sim.NewEngine()
		fired := 0
		var fire func()
		fire = func() {
			if fired++; fired < 100_000 {
				eng.Schedule(rng.Float64(), fire)
			}
		}
		for i := 0; i < 64; i++ {
			eng.Schedule(rng.Float64(), fire)
		}
		t0 := time.Now()
		sp := tr.begin("sim.SerialEngine.Run", 0)
		events += eng.Run(math.Inf(1))
		tr.end(sp)
		busy += time.Since(t0)
	}
	vals["sim.engine_events_per_s"] = float64(events) / busy.Seconds()
}

// jobsHarness times the queue's journal transitions, store landings and
// the replay of the pre-populated journal on a scratch directory.
func jobsHarness(e *env, tr *tracer, vals map[string]float64) error {
	journal, err := e.journalTemplate()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(e.tmp, "jobs-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	q, err := jobs.OpenQueue(dir + "/queue.jsonl")
	if err != nil {
		return err
	}
	var submit, claim, done []float64
	for i := 0; i < queueJobs; i++ {
		s := jobs.Spec{Version: jobs.SpecVersion, Kind: jobs.KindTopo, Seed: int64(i + 1), Nodes: 50}
		var j jobs.Job
		d, err := timed(tr, "jobs.Queue.Submit", func() (err error) { j, err = q.Submit(s); return err })
		submit = append(submit, d*1e3)
		if err == nil {
			d, err = timed(tr, "jobs.Queue.Claim", func() error { _, _, err := q.Claim(); return err })
			claim = append(claim, d*1e3)
		}
		if err == nil {
			d, err = timed(tr, "jobs.Queue.Done", func() error { return q.Done(j.ID, s.Hash()) })
			done = append(done, d*1e3)
		}
		if err != nil {
			q.Close()
			return err
		}
	}
	if err := q.Close(); err != nil {
		return err
	}

	st, err := jobs.OpenStore(dir + "/runs")
	if err != nil {
		return err
	}
	var land []float64
	for i := 0; i < landResults; i++ {
		res, err := jobs.Run(context.Background(), jobs.Spec{
			Version: jobs.SpecVersion, Kind: jobs.KindTopo, Seed: int64(i + 1), Nodes: 40,
		})
		if err != nil {
			return err
		}
		d, err := timed(tr, "jobs.Store.Land", func() error { _, err := st.Land(res); return err })
		if err != nil {
			return err
		}
		land = append(land, d*1e3)
	}

	var replay []float64
	for i := 0; i < replayReps; i++ {
		path := fmt.Sprintf("%s/replay-%d.jsonl", dir, i)
		if err := copyFile(journal, path); err != nil {
			return err
		}
		var rq *jobs.Queue
		d, err := timed(tr, "jobs.OpenQueue", func() (err error) { rq, err = jobs.OpenQueue(path); return err })
		if err != nil {
			return err
		}
		if err := rq.Close(); err != nil {
			return err
		}
		replay = append(replay, d)
	}
	vals["jobs.submit_us"] = median(submit)
	vals["jobs.claim_us"] = median(claim)
	vals["jobs.done_us"] = median(done)
	vals["jobs.land_us"] = median(land)
	vals["jobs.replay_ms"] = median(replay)
	return nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
