// Command omnc-serve is the experiment daemon: a single process that owns a
// crash-safe job queue, a bounded pool of experiment workers and a
// content-addressed results store, behind a small JSON/HTTP API. Every
// experiment the CLIs run (omnc-sim sessions, omnc-fig figures, omnc-topo
// deployments, loopback drift sessions, benchmark recordings) is expressed
// as the same versioned Spec, so a daemon job reproduces the CLI's output
// byte for byte — same seeds, same artifacts.
//
//	omnc-serve -addr 127.0.0.1:8377 -data ./omnc-data -jobs 2
//
// API:
//
//	POST   /jobs                        submit a Spec (?priority=N orders dispatch)
//	GET    /jobs                        all jobs with live progress
//	GET    /jobs/{id}                   one job (progress snapshot while running)
//	DELETE /jobs/{id}                   cancel a pending or running job
//	GET    /jobs/{id}/events            server-sent events until terminal state
//	GET    /runs                        index of landed results
//	GET    /runs/{id}                   one landed run (summary + artifact list)
//	GET    /runs/{id}/artifacts/{name}  one artifact's bytes
//	GET    /healthz                     build info, CPUs, queue counts, live workers
//
// The queue journal and the results store live under -data and survive
// restarts: jobs that were running when the process died are requeued on
// the next start, and re-running a Spec lands in the same run directory
// with identical bytes (runs are addressed by the hash of their Spec).
// Cancellations are journaled the same way, so a job canceled mid-run
// stays canceled across a restart instead of being requeued. Jobs that
// fail with a transient (retryable) error re-run up to -max-retries times
// with exponential backoff starting at -retry-backoff, then fail
// terminally. SIGINT/SIGTERM drain: claiming stops immediately, running
// jobs get -drain to finish, and whatever misses the deadline is requeued.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"omnc/internal/cliflags"
	"omnc/internal/jobs"
)

// Connection bounds: a client must deliver its request headers within
// readHeaderTimeout and a keep-alive connection closes after idleTimeout
// without a request, so a slow-header or abandoned client cannot hold a
// connection open forever. There is no write timeout: /jobs/{id}/events
// streams until its job ends.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8377", "listen address")
		dataDir    = flag.String("data", "omnc-data", "state directory (queue journal and results store)")
		workers    = flag.Int("jobs", 2, "concurrent experiment jobs")
		drain      = flag.Duration("drain", 30*time.Second, "graceful-shutdown deadline for running jobs before they are requeued")
		maxRetries = flag.Int("max-retries", 2, "re-runs granted to a job failing with a transient error before it fails terminally")
		retryBase  = flag.Duration("retry-backoff", time.Second, "backoff before the first retry; doubles per further retry")
	)
	app := cliflags.New("omnc-serve", flag.CommandLine)
	app.Main(func(ctx context.Context) error {
		return serve(ctx, *addr, *dataDir, *workers, *drain, *maxRetries, *retryBase)
	})
}

func serve(ctx context.Context, addr, dataDir string, workers int, drain time.Duration, maxRetries int, retryBase time.Duration) error {
	if workers < 1 {
		workers = 1
	}
	q, err := jobs.OpenQueue(filepath.Join(dataDir, "queue.jsonl"))
	if err != nil {
		return err
	}
	defer q.Close()
	if maxRetries < 0 {
		maxRetries = 0
	}
	q.MaxRetries = maxRetries
	if retryBase > 0 {
		q.RetryBase = retryBase
	}
	st, err := jobs.OpenStore(filepath.Join(dataDir, "runs"))
	if err != nil {
		return err
	}
	s := newServer(q, st)

	// Workers claim until claimCtx ends and run until runCtx ends; the gap
	// between the two is the drain window for in-flight jobs. claimCtx
	// derives from ctx so both the signal path and the serve-error path can
	// stop the claiming loop.
	claimCtx, cancelClaim := context.WithCancel(ctx)
	defer cancelClaim()
	runCtx, cancelRun := context.WithCancel(context.Background())
	defer cancelRun()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.worker(claimCtx, runCtx)
		}()
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("omnc-serve: listening on http://%s (data %s, %d workers)\n", ln.Addr(), dataDir, workers)
	srv := &http.Server{Handler: s.handler(), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		// The listener died while ctx is still live: stop claiming before
		// cancelling runs, or idle workers would block on claimCtx forever
		// and a mid-job worker would loop claim -> instant cancel -> requeue,
		// growing the journal unboundedly.
		cancelClaim()
		cancelRun()
		wg.Wait()
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting, give running jobs the drain
	// window, then cancel whatever is left so it requeues.
	fmt.Printf("omnc-serve: shutting down (drain %v)\n", drain)
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(drain):
		cancelRun()
		<-done
	}
	shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}
