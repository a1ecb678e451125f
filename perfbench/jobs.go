package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"omnc/internal/jobs"
	"omnc/internal/metrics"
)

// Shape of the Spec catalog that the jobs workload and the serve harness
// share.
const (
	topoSpecs    = 192 // topo Specs in the catalog
	sessionSeeds = 8   // session Specs come in omnc/etx pairs per seed
	repeatShare  = 0.25
	specOpList   = 1024 // ops in the seed's op list
	preJobs      = 1000 // finished jobs in the pre-populated journal
)

// specCase is one catalog Spec and the artifact its op fetches.
type specCase struct {
	key      string
	spec     jobs.Spec
	body     []byte
	artifact string
}

// specCatalog lists the jobs catalog: small topo jobs of 40 to 180 nodes,
// and small rank-fidelity session jobs whose report artifact is fetched.
func specCatalog() []specCase {
	var out []specCase
	for k := 0; k < topoSpecs; k++ {
		s := jobs.Spec{Version: jobs.SpecVersion, Kind: jobs.KindTopo, Seed: int64(k + 1), Nodes: 40 + 20*(k%8)}
		out = append(out, specCase{key: fmt.Sprintf("topo/s%d/n%d", s.Seed, s.Nodes), spec: s, artifact: "links.csv"})
	}
	for k := 0; k < sessionSeeds; k++ {
		for _, proto := range []string{"omnc", "etx"} {
			s := jobs.Spec{
				Version: jobs.SpecVersion, Kind: jobs.KindSession, Seed: int64(k + 1), Nodes: 60,
				MinHops: 2, MaxHops: 4, Duration: 20, Protocol: proto, Report: true,
			}
			out = append(out, specCase{key: fmt.Sprintf("session/s%d/%s", s.Seed, proto), spec: s, artifact: "report.json"})
		}
	}
	for i := range out {
		body, err := json.Marshal(out[i].spec)
		if err != nil {
			panic(err) // a Spec of plain fields always marshals
		}
		out[i].body = body
	}
	return out
}

// specOps is the seed's op list over a catalog of n Specs: a seed-shuffled
// walk of the catalog in which a quarter of the ops repeat an earlier op's
// Spec.
func specOps(n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(n)
	ops := make([]int, 0, specOpList)
	for next := 0; len(ops) < specOpList; {
		if len(ops) > 0 && rng.Float64() < repeatShare {
			ops = append(ops, ops[rng.Intn(len(ops))])
			continue
		}
		ops = append(ops, order[next%len(order)])
		next++
	}
	return ops
}

// journalTemplate builds, once per process, a queue journal holding
// preJobs finished jobs through the jobs API. Every queue the benchmark
// opens, in process or in a daemon, replays a fresh copy of it.
func (e *env) journalTemplate() (string, error) {
	if e.journal != "" {
		return e.journal, nil
	}
	path := filepath.Join(e.tmp, "template", "queue.jsonl")
	q, err := jobs.OpenQueue(path)
	if err != nil {
		return "", err
	}
	for i := 0; i < preJobs; i++ {
		s := jobs.Spec{Version: jobs.SpecVersion, Kind: jobs.KindTopo, Seed: int64(100_000 + i), Nodes: 50}
		j, err := q.Submit(s)
		if err == nil {
			_, _, err = q.Claim()
		}
		if err == nil {
			err = q.Done(j.ID, s.Hash())
		}
		if err != nil {
			q.Close()
			return "", fmt.Errorf("journal template: %w", err)
		}
	}
	if err := q.Close(); err != nil {
		return "", err
	}
	e.journal = path
	return path, nil
}

// jobsInstance is the set-up jobs workload: the daemon's worker path in
// this process, over the queue and results store of the current round.
type jobsInstance struct {
	e     *env
	cat   []specCase
	list  []int // catalog index of every op
	refs  map[string]string
	dir   string // state directory of the current round
	q     *jobs.Queue
	store *jobs.Store
}

// setupJobs opens a queue over a fresh copy of the pre-populated journal
// (replaying it), opens an empty results store and runs one warm-up op.
// Building the journal template is not part of it: the template stands
// for the state a restarted daemon finds on disk.
func setupJobs(e *env) (instance, time.Duration, error) {
	if _, err := e.journalTemplate(); err != nil {
		return nil, 0, err
	}
	start := cpuTime()
	cat := specCatalog()
	s := &jobsInstance{e: e, cat: cat, list: specOps(len(cat), e.seed), refs: e.refs["jobs"]}
	if err := s.reset(); err != nil {
		return nil, 0, err
	}
	// The warm-up op is the catalog's first Spec, the same for every seed.
	if err := s.job(cat[0]); err != nil {
		s.close()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return s, cpuTime() - start, nil
}

func (s *jobsInstance) keys() []string {
	out := make([]string, len(s.list))
	for i, c := range s.list {
		out[i] = s.cat[c].key
	}
	return out
}

func (s *jobsInstance) span(int) string { return "jobs.op" }
func (s *jobsInstance) run(i int) error { return s.job(s.cat[s.list[i]]) }

// reset replaces the round's state with a fresh copy of the pre-populated
// journal and an empty store, so every round lands the same results over
// the same journal.
func (s *jobsInstance) reset() error {
	if err := s.close(); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(s.e.tmp, "jobs-*")
	if err != nil {
		return err
	}
	s.dir = dir
	if err := copyFile(s.e.journal, filepath.Join(dir, "queue.jsonl")); err != nil {
		return err
	}
	if s.q, err = jobs.OpenQueue(filepath.Join(dir, "queue.jsonl")); err != nil {
		return err
	}
	s.store, err = jobs.OpenStore(filepath.Join(dir, "runs"))
	return err
}

func (s *jobsInstance) close() error {
	var err error
	if s.q != nil {
		err = s.q.Close()
		s.q = nil
	}
	if s.dir != "" {
		if rerr := os.RemoveAll(s.dir); err == nil {
			err = rerr
		}
		s.dir = ""
	}
	return err
}

// job runs one op the way an omnc-serve worker runs a submitted job —
// submit, claim, run with a progress sink, land, done — then reads the
// landed artifact back and checks its digest.
func (s *jobsInstance) job(sc specCase) error {
	j, err := s.q.Submit(sc.spec)
	if err != nil {
		return fmt.Errorf("%s: submit: %w", sc.key, err)
	}
	c, ok, err := s.q.Claim()
	if err != nil || !ok || c.ID != j.ID {
		return fmt.Errorf("%s: claim: got %q (ok %v), want %q: %v", sc.key, c.ID, ok, j.ID, err)
	}
	res, err := jobs.RunWithProgress(context.Background(), c.Spec, metrics.NewProgress(c.Spec.Units()))
	if err != nil {
		return fmt.Errorf("%s: run: %w", sc.key, err)
	}
	runID, err := s.store.Land(res)
	if err != nil {
		return fmt.Errorf("%s: land: %w", sc.key, err)
	}
	if err := s.q.Done(c.ID, runID); err != nil {
		return fmt.Errorf("%s: done: %w", sc.key, err)
	}
	if got, _ := s.q.Get(c.ID); got.State != jobs.JobDone {
		return fmt.Errorf("%s: job %s ended %s", sc.key, c.ID, got.State)
	}
	data, err := s.store.ReadArtifact(runID, sc.artifact)
	if err != nil {
		return fmt.Errorf("%s: artifact: %w", sc.key, err)
	}
	if want, ok := s.refs[sc.key]; !ok {
		return fmt.Errorf("%s: no reference digest", sc.key)
	} else if got := artifactDigest(data); got != want {
		return fmt.Errorf("%s: artifact digest %s, reference %s", sc.key, got, want)
	}
	return nil
}

func copyFile(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}
