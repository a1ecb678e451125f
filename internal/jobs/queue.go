package jobs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// JobState is the lifecycle position of a queued job. Transitions are
// pending -> running -> done | failed | canceled; the backward edges are
// running -> pending (a requeue, taken on graceful shutdown and on crash
// recovery, or a retry after a retryable failure) and pending -> canceled
// (a cancellation before the job ever ran).
type JobState string

const (
	JobPending  JobState = "pending"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final: no transition leaves it.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// ErrJobCanceled is wrapped by transitions that lose a race against a
// cancellation: the worker that claimed the job calls Done/Fail/Requeue,
// finds the job already canceled, and can tell this benign outcome apart
// from a real state-machine violation with errors.Is.
var ErrJobCanceled = errors.New("jobs: job canceled")

// ErrJobTerminal is wrapped by Cancel when the job already finished (done
// or failed) — there is nothing left to cancel.
var ErrJobTerminal = errors.New("jobs: job already terminal")

// retryableError marks a failure as transient. See Retryable.
type retryableError struct{ err error }

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }

// Retryable wraps err so Fail treats it as transient: the job is returned
// to pending with exponential backoff instead of failing terminally, until
// its attempts exceed the queue's MaxRetries. Wrapping nil returns nil.
func Retryable(err error) error {
	if err == nil {
		return nil
	}
	return &retryableError{err: err}
}

// IsRetryable reports whether err (or anything it wraps) was marked with
// Retryable.
func IsRetryable(err error) bool {
	var r *retryableError
	return errors.As(err, &r)
}

// Job is one queued experiment: the Spec plus its lifecycle record. Copies
// returned by the Queue are snapshots; mutating them affects nothing.
type Job struct {
	ID    string   `json:"id"`
	Spec  Spec     `json:"spec"`
	State JobState `json:"state"`
	// Priority orders dispatch: higher claims first, ties break FIFO by
	// submission order. Priority is queue metadata, deliberately outside
	// the Spec, so it never enters the content address — the same
	// experiment submitted urgent and casual lands in one run directory.
	Priority int `json:"priority,omitempty"`
	// Error is the failure reason: final in state failed, and the latest
	// attempt's reason while a retryable failure waits to re-run.
	Error string `json:"error,omitempty"`
	// Run is the results-store run ID, set only in state done.
	Run string `json:"run,omitempty"`
	// Requeues counts how many times the job was returned to pending
	// without blame (daemon restarts mid-run, graceful-shutdown drains).
	Requeues int `json:"requeues,omitempty"`
	// Attempts counts how many times the job entered running. Retries
	// after retryable failures grow it; requeues re-run the same attempt.
	Attempts int `json:"attempts,omitempty"`
	// NotBefore is the retry-backoff deadline: while set and in the
	// future, Claim skips the job.
	NotBefore   *time.Time `json:"not_before,omitempty"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// journalRecord is one line of the queue's JSONL journal. The journal is the
// queue's single source of truth: every state transition is one appended,
// fsync'd line, and opening a queue replays the journal from the top. A
// crash between transitions therefore loses at most the transition being
// written, never a submitted job.
type journalRecord struct {
	Op   string    `json:"op"` // submit | start | done | fail | requeue | retry | cancel | priority
	ID   string    `json:"id"`
	Time time.Time `json:"time"`
	Spec *Spec     `json:"spec,omitempty"`  // submit only
	Err  string    `json:"error,omitempty"` // fail and retry
	Run  string    `json:"run,omitempty"`   // done only
	// Priority rides the priority op (and submit, when non-zero).
	Priority int `json:"priority,omitempty"`
	// NotBefore rides the retry op: the backoff deadline, durable so a
	// restarted daemon keeps honouring it.
	NotBefore *time.Time `json:"not_before,omitempty"`
}

// Queue is a crash-safe, disk-backed priority queue of experiment jobs.
// Dispatch order is priority-then-FIFO. All methods are safe for
// concurrent use.
type Queue struct {
	// MaxRetries is how many times a job that fails with a Retryable error
	// is re-run before failing terminally (0 = never retry). Set it before
	// the queue is used concurrently.
	MaxRetries int
	// RetryBase is the first retry's backoff delay; each further retry
	// doubles it. Set it before the queue is used concurrently.
	RetryBase time.Duration

	mu     sync.Mutex
	f      *os.File
	jobs   map[string]*Job
	order  []string // submission order, the FIFO tie-break within a priority
	seq    int
	closed bool
	timers []*time.Timer
	// now is the queue's clock: journal timestamps, retry deadlines and the
	// backoff checks all read it. OpenQueue uses time.Now; tests inject a
	// clock they advance past a deadline instead of sleeping.
	now func() time.Time

	// wake is closed and replaced whenever a job becomes claimable, so the
	// scheduler can block on Wait instead of polling.
	wake chan struct{}
}

// OpenQueue opens (or creates) the journal at path and replays it. Jobs
// found in state running did not survive their previous process — they are
// requeued (with a journal record of their own), so a daemon killed mid-job
// re-runs the work after restart, bit-identically from the Spec's seed.
// Jobs canceled or mid-backoff stay exactly where the journal left them.
func OpenQueue(path string) (*Queue, error) {
	return openQueueClock(path, time.Now)
}

// openQueueClock is OpenQueue on the given clock. The recovery pass after
// replay reads it too, so a reopened queue judges backoff deadlines by the
// clock that set them.
func openQueueClock(path string, now func() time.Time) (*Queue, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("jobs: queue: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobs: queue: %w", err)
	}
	q := &Queue{RetryBase: time.Second, f: f, jobs: make(map[string]*Job), wake: make(chan struct{}), now: now}
	if err := q.replay(); err != nil {
		f.Close()
		return nil, err
	}
	// Recover: a running job's process is gone (it was us, before a crash
	// or kill). Requeue through the journal so the recovery itself is
	// durable. Canceled jobs are terminal and stay canceled.
	for _, id := range q.order {
		switch j := q.jobs[id]; {
		case j.State == JobRunning:
			if err := q.transition(id, JobRunning, JobPending, journalRecord{Op: "requeue"}); err != nil {
				f.Close()
				return nil, err
			}
		case j.State == JobPending && j.NotBefore != nil && q.now().Before(*j.NotBefore):
			// The restart does not forgive the backoff; re-arm its wake.
			q.armWake(*j.NotBefore)
		}
	}
	return q, nil
}

// replay rebuilds the in-memory state from the journal. Records are applied
// in order; a torn final line (crash mid-append) is tolerated, dropped AND
// truncated away, so the next append starts on a clean line boundary instead
// of concatenating onto the fragment and corrupting the journal for the
// replay after this one.
func (q *Queue) replay() error {
	if _, err := q.f.Seek(0, 0); err != nil {
		return fmt.Errorf("jobs: queue: %w", err)
	}
	r := bufio.NewReaderSize(q.f, 1<<20)
	var off, goodEnd int64
	line := 0
	for {
		raw, rerr := r.ReadBytes('\n')
		if rerr != nil && rerr != io.EOF {
			return fmt.Errorf("jobs: queue: %w", rerr)
		}
		if len(raw) > 0 {
			line++
			off += int64(len(raw))
			if rerr == io.EOF {
				// The final line is unterminated. Each append writes record
				// plus newline in one Write before fsync, so this append
				// never completed and was never acknowledged as durable —
				// even if the fragment happens to parse, drop it.
				break
			}
			trimmed := bytes.TrimSuffix(raw, []byte("\n"))
			if len(trimmed) > 0 {
				var rec journalRecord
				if uerr := json.Unmarshal(trimmed, &rec); uerr != nil {
					// Only the final line may be torn; anything else is
					// corruption worth failing loudly over.
					if _, perr := r.Peek(1); perr == io.EOF {
						break
					}
					return fmt.Errorf("jobs: queue: journal line %d corrupt: %v", line, uerr)
				}
				if aerr := q.apply(rec); aerr != nil {
					return fmt.Errorf("jobs: queue: journal line %d: %w", line, aerr)
				}
			}
			goodEnd = off
		}
		if rerr == io.EOF {
			break
		}
	}
	if off > goodEnd {
		if err := q.f.Truncate(goodEnd); err != nil {
			return fmt.Errorf("jobs: queue: %w", err)
		}
	}
	if _, err := q.f.Seek(goodEnd, 0); err != nil {
		return fmt.Errorf("jobs: queue: %w", err)
	}
	return nil
}

// apply folds one journal record into the in-memory state.
func (q *Queue) apply(rec journalRecord) error {
	switch rec.Op {
	case "submit":
		if rec.Spec == nil {
			return fmt.Errorf("submit without spec")
		}
		if _, dup := q.jobs[rec.ID]; dup {
			return fmt.Errorf("duplicate job id %q", rec.ID)
		}
		q.jobs[rec.ID] = &Job{ID: rec.ID, Spec: *rec.Spec, State: JobPending,
			Priority: rec.Priority, SubmittedAt: rec.Time}
		q.order = append(q.order, rec.ID)
		var n int
		if _, err := fmt.Sscanf(rec.ID, "j%d", &n); err == nil && n > q.seq {
			q.seq = n
		}
	case "start", "done", "fail", "requeue", "retry", "cancel", "priority":
		j, ok := q.jobs[rec.ID]
		if !ok {
			return fmt.Errorf("%s for unknown job %q", rec.Op, rec.ID)
		}
		switch rec.Op {
		case "start":
			j.State, j.StartedAt = JobRunning, &rec.Time
			j.Attempts++
			j.NotBefore = nil
		case "done":
			j.State, j.Run, j.FinishedAt = JobDone, rec.Run, &rec.Time
			j.Error = ""
		case "fail":
			j.State, j.Error, j.FinishedAt = JobFailed, rec.Err, &rec.Time
		case "requeue":
			j.State, j.StartedAt = JobPending, nil
			j.Requeues++
		case "retry":
			j.State, j.StartedAt = JobPending, nil
			j.Error = rec.Err
			j.NotBefore = rec.NotBefore
		case "cancel":
			j.State, j.FinishedAt = JobCanceled, &rec.Time
			j.NotBefore = nil
		case "priority":
			j.Priority = rec.Priority
		}
	default:
		return fmt.Errorf("unknown op %q", rec.Op)
	}
	return nil
}

// append writes one journal record durably (fsync) and folds it in.
func (q *Queue) append(rec journalRecord) error {
	buf, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobs: queue: %w", err)
	}
	if _, err := q.f.Write(append(buf, '\n')); err != nil {
		return fmt.Errorf("jobs: queue: %w", err)
	}
	if err := q.f.Sync(); err != nil {
		return fmt.Errorf("jobs: queue: %w", err)
	}
	return q.apply(rec)
}

// Submit validates and enqueues a Spec at the default priority, returning
// the job snapshot.
func (q *Queue) Submit(s Spec) (Job, error) {
	return q.SubmitPriority(s, 0)
}

// SubmitPriority is Submit with a dispatch priority: higher claims first,
// FIFO within a priority. The priority is queue metadata only — it never
// enters the Spec or its content address.
func (q *Queue) SubmitPriority(s Spec, priority int) (Job, error) {
	if err := s.Validate(); err != nil {
		return Job{}, err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.seq++
	id := fmt.Sprintf("j%d", q.seq)
	rec := journalRecord{Op: "submit", ID: id, Time: q.now().UTC(), Spec: &s, Priority: priority}
	if err := q.append(rec); err != nil {
		return Job{}, err
	}
	q.wakeLocked()
	return *q.jobs[id], nil
}

// SetPriority reprioritizes a pending job through the journal. Running and
// terminal jobs cannot be reprioritized.
func (q *Queue) SetPriority(id string, priority int) (Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.transition(id, JobPending, JobPending, journalRecord{Op: "priority", Priority: priority}); err != nil {
		return Job{}, err
	}
	q.wakeLocked()
	return *q.jobs[id], nil
}

// Claim atomically moves the best pending job to running and returns it:
// the highest priority wins, ties break FIFO by submission order, and jobs
// inside their retry-backoff window are skipped. ok is false when nothing
// is claimable right now (the queue wakes Wait-ers when a backoff expires).
func (q *Queue) Claim() (Job, bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.now()
	best := ""
	for _, id := range q.order {
		j := q.jobs[id]
		if j.State != JobPending {
			continue
		}
		if j.NotBefore != nil && now.Before(*j.NotBefore) {
			continue
		}
		// Strict inequality keeps the earliest submission among ties.
		if best == "" || j.Priority > q.jobs[best].Priority {
			best = id
		}
	}
	if best == "" {
		return Job{}, false, nil
	}
	if err := q.transition(best, JobPending, JobRunning, journalRecord{Op: "start"}); err != nil {
		return Job{}, false, err
	}
	return *q.jobs[best], true, nil
}

// Done marks a running job completed, recording its results-store run ID.
func (q *Queue) Done(id, runID string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.transition(id, JobRunning, JobDone, journalRecord{Op: "done", Run: runID})
}

// Fail ends a running job's attempt with the reason. A cause marked with
// Retryable sends the job back to pending with exponential backoff
// (RetryBase doubling per attempt) until its attempts exceed MaxRetries;
// everything else — and the attempt after the last retry — fails the job
// terminally.
func (q *Queue) Fail(id string, cause error) error {
	msg := "unknown failure"
	if cause != nil {
		msg = cause.Error()
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if j, ok := q.jobs[id]; ok && j.State == JobRunning && IsRetryable(cause) && j.Attempts <= q.MaxRetries {
		shift := j.Attempts - 1
		if shift > 10 {
			shift = 10 // cap the doubling; backoff is already minutes-long
		}
		nb := q.now().UTC().Add(q.RetryBase << shift).Truncate(0)
		rec := journalRecord{Op: "retry", Err: msg, NotBefore: &nb}
		if err := q.transition(id, JobRunning, JobPending, rec); err != nil {
			return err
		}
		q.armWake(nb)
		return nil
	}
	return q.transition(id, JobRunning, JobFailed, journalRecord{Op: "fail", Err: msg})
}

// Requeue returns a running job to pending — the graceful-shutdown path for
// claimed-but-unfinished work. The attempt is not charged against retries.
func (q *Queue) Requeue(id string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.transition(id, JobRunning, JobPending, journalRecord{Op: "requeue"}); err != nil {
		return err
	}
	q.wakeLocked()
	return nil
}

// Cancel moves a pending or running job to the terminal state canceled,
// durably: the journal records the transition, so a restart replays the
// cancellation instead of requeuing the job. Canceling an already-canceled
// job is an idempotent success; canceling a done or failed job returns an
// error wrapping ErrJobTerminal. Cancel does not interrupt a running job's
// process — the daemon pairs it with a per-job context cancel.
func (q *Queue) Cancel(id string) (Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Job{}, fmt.Errorf("jobs: queue: unknown job %q", id)
	}
	switch j.State {
	case JobCanceled:
		return *j, nil
	case JobDone, JobFailed:
		return Job{}, fmt.Errorf("jobs: queue: job %s is %s: %w", id, j.State, ErrJobTerminal)
	}
	if err := q.transition(id, j.State, JobCanceled, journalRecord{Op: "cancel"}); err != nil {
		return Job{}, err
	}
	return *j, nil
}

// transition enforces the state machine and journals the edge, filling the
// record's ID and Time. Callers hold q.mu (OpenQueue's recovery runs before
// the Queue escapes, so it is exempt).
func (q *Queue) transition(id string, from, to JobState, rec journalRecord) error {
	j, ok := q.jobs[id]
	if !ok {
		return fmt.Errorf("jobs: queue: unknown job %q", id)
	}
	if j.State != from {
		if j.State == JobCanceled {
			// The common benign race: a worker finishing (or draining) a
			// job that a DELETE canceled out from under it.
			return fmt.Errorf("jobs: queue: job %s cannot move to %s: %w", id, to, ErrJobCanceled)
		}
		return fmt.Errorf("jobs: queue: job %s is %s, not %s (cannot move to %s)", id, j.State, from, to)
	}
	rec.ID, rec.Time = id, q.now().UTC()
	return q.append(rec)
}

// Get returns a snapshot of the job.
func (q *Queue) Get(id string) (Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// List returns snapshots of every job in submission order.
func (q *Queue) List() []Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Job, 0, len(q.order))
	for _, id := range q.order {
		out = append(out, *q.jobs[id])
	}
	return out
}

// Wait returns a channel that is closed the next time a job becomes
// claimable (submit, requeue, reprioritize or an expired retry backoff).
// Callers re-Claim after it fires.
func (q *Queue) Wait() <-chan struct{} {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.wake
}

// wakeLocked releases every Wait-er; q.mu held.
func (q *Queue) wakeLocked() {
	close(q.wake)
	q.wake = make(chan struct{})
}

// armWake schedules a wake for a retry-backoff deadline so blocked workers
// re-Claim when the job becomes eligible. Safe with or without q.mu held —
// the timer body takes the lock itself.
func (q *Queue) armWake(nb time.Time) {
	d := nb.Sub(q.now()) + time.Millisecond
	if d < 0 {
		d = 0
	}
	t := time.AfterFunc(d, func() {
		q.mu.Lock()
		defer q.mu.Unlock()
		if q.closed {
			return
		}
		q.wakeLocked()
	})
	q.timers = append(q.timers, t)
}

// Close releases the journal file and stops any pending backoff wakes. The
// queue must not be used afterwards.
func (q *Queue) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	for _, t := range q.timers {
		t.Stop()
	}
	q.timers = nil
	return q.f.Close()
}
