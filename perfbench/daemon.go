package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"omnc/internal/jobs"
)

// Serve harness shape: a real omnc-serve (-jobs 2) driven by two closed-loop
// clients, the host's two CPUs.
const (
	clients       = 2
	daemonWorkers = 2
)

// daemon is one running omnc-serve process.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	drained chan struct{} // closed once stdout hits EOF
}

// startDaemon starts omnc-serve over a fresh copy of journal and returns
// once /healthz answers.
func startDaemon(e *env, client *http.Client, journal string) (*daemon, error) {
	dir, err := os.MkdirTemp(e.tmp, "serve-*")
	if err != nil {
		return nil, err
	}
	if err := copyFile(journal, filepath.Join(dir, "queue.jsonl")); err != nil {
		return nil, err
	}
	cmd := exec.Command(e.serve, "-addr", "127.0.0.1:0", "-data", dir, "-jobs", strconv.Itoa(daemonWorkers), "-drain", "10s")
	cmd.Stderr = os.Stderr
	// Take the daemon down with the benchmark if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("omnc-serve: %w", err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	br := bufio.NewReader(stdout)
	line, err := br.ReadString('\n')
	go func() {
		io.Copy(io.Discard, br) //nolint:errcheck // draining a child's stdout until it exits
		close(d.drained)
	}()
	_, rest, ok := strings.Cut(line, "listening on http://")
	addr, _, _ := strings.Cut(rest, " ")
	if err != nil || !ok || addr == "" {
		d.kill()
		return nil, fmt.Errorf("omnc-serve did not report its address (%q, %v)", line, err)
	}
	d.base = "http://" + addr
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Since(start) > 30*time.Second {
			d.kill()
			return nil, fmt.Errorf("omnc-serve /healthz: no answer after 30s (%v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the daemon down gracefully and waits for it to exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	select {
	case <-d.drained:
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("omnc-serve did not exit within 30s of SIGTERM")
	}
	return d.cmd.Wait()
}

// kill ends the daemon without a drain and reaps it.
func (d *daemon) kill() {
	d.cmd.Process.Kill() //nolint:errcheck // the process may already be gone
	<-d.drained
	d.cmd.Wait() //nolint:errcheck // killed on an error path; the cause is reported
}

// daemonInstance is a running serve harness.
type daemonInstance struct {
	cat    []specCase
	ops    []int
	refs   map[string]string
	client *http.Client
	d      *daemon
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}}
}

// startServeHarness starts the daemon over the pre-populated journal.
func startServeHarness(e *env) (*daemonInstance, error) {
	journal, err := e.journalTemplate()
	if err != nil {
		return nil, err
	}
	cat := specCatalog()
	s := &daemonInstance{cat: cat, ops: specOps(len(cat), e.seed), refs: e.refs["jobs"], client: newClient()}
	if s.d, err = startDaemon(e, s.client, journal); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *daemonInstance) pass(d time.Duration, tr *tracer) *passResult {
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
		res  = &passResult{}
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i > 0 && time.Since(start) >= d {
					return
				}
				sc := s.cat[s.ops[int(i)%len(s.ops)]]
				t0 := time.Now()
				err := s.job(sc, tr)
				ms := msSince(t0)
				mu.Lock()
				res.record(ms, err)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// jobStatus is the part of the daemon's job document the client reads.
type jobStatus struct {
	ID          string     `json:"id"`
	State       string     `json:"state"`
	Run         string     `json:"run"`
	Error       string     `json:"error"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at"`
	FinishedAt  *time.Time `json:"finished_at"`
}

// job runs one op: submit, follow the events to a terminal state, fetch
// and check the artifact.
func (s *daemonInstance) job(sc specCase, tr *tracer) error {
	root := tr.begin("serve.op", 0)
	defer tr.end(root)

	sp := tr.begin("serve.submit", root)
	var st jobStatus
	err := s.do(http.MethodPost, "/jobs", sc.body, http.StatusAccepted, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&st)
	})
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("%s: submit: %w", sc.key, err)
	}

	sp = tr.begin("serve.events", root)
	var received time.Time
	err = s.do(http.MethodGet, "/jobs/"+st.ID+"/events", nil, http.StatusOK, func(r io.Reader) error {
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			data, ok := strings.CutPrefix(sc.Text(), "data: ")
			if !ok {
				continue
			}
			if err := json.Unmarshal([]byte(data), &st); err != nil {
				return err
			}
			if st.State == string(jobs.JobDone) || st.State == string(jobs.JobFailed) || st.State == string(jobs.JobCanceled) {
				received = time.Now()
				return nil
			}
		}
		if err := sc.Err(); err != nil {
			return err
		}
		return errors.New("event stream ended before a terminal state")
	})
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("%s: events: %w", sc.key, err)
	}
	if st.State != string(jobs.JobDone) {
		return fmt.Errorf("%s: job %s ended %s: %s", sc.key, st.ID, st.State, st.Error)
	}
	if st.StartedAt != nil && st.FinishedAt != nil {
		tr.add("serve.queue_wait", root, st.SubmittedAt, *st.StartedAt)
		tr.add("serve.exec", root, *st.StartedAt, *st.FinishedAt)
		tr.add("serve.notify", root, *st.FinishedAt, received)
	}

	sp = tr.begin("serve.artifact", root)
	var got string
	err = s.do(http.MethodGet, "/runs/"+st.Run+"/artifacts/"+sc.artifact, nil, http.StatusOK, func(r io.Reader) error {
		data, err := io.ReadAll(r)
		got = artifactDigest(data)
		return err
	})
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("%s: artifact: %w", sc.key, err)
	}
	if want, ok := s.refs[sc.key]; !ok {
		return fmt.Errorf("%s: no reference digest", sc.key)
	} else if got != want {
		return fmt.Errorf("%s: artifact digest %s, reference %s", sc.key, got, want)
	}
	return nil
}

// do sends one request and hands a response with the wanted status to read.
func (s *daemonInstance) do(method, path string, body []byte, want int, read func(io.Reader) error) error {
	req, err := http.NewRequest(method, s.d.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	if err := read(resp.Body); err != nil {
		return err
	}
	// Drain so the connection is reused.
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

func (s *daemonInstance) close() error {
	s.client.CloseIdleConnections()
	if s.d == nil {
		return nil
	}
	err := s.d.stop()
	s.d = nil
	return err
}
