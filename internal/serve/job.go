package serve

import (
	"context"
	"sync"
	"time"

	"repro/internal/sched"
)

// Job lifecycle states, as reported in JobStatus.State. A job moves
// queued -> running -> one of the three terminal states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// job is one submitted sweep: its cells, its cancellation context, and the
// results accumulated so far. The records slice is append-only, which is
// what makes late subscribers cheap: a reader holds a cursor into the
// slice and replays everything it has not yet seen, then waits on the
// updated channel (closed and replaced on every change) for more.
type job struct {
	id         string
	typ        string
	mode       string // "local" or "fabric"
	cells      []sched.Job
	poolWidth  int
	shardShots int
	noCache    bool // bypass ledger + coalescing (set before publication)
	ctx        context.Context
	cancel     context.CancelFunc

	mu       sync.Mutex
	state    string
	records  []CellRecord
	errMsg   string
	updated  chan struct{}
	created  time.Time
	started  time.Time
	finished time.Time
}

func newJob(id, typ, mode string, cells []sched.Job, poolWidth, shardShots int, parent context.Context) *job {
	ctx, cancel := context.WithCancel(parent)
	return &job{
		id: id, typ: typ, mode: mode, cells: cells, poolWidth: poolWidth, shardShots: shardShots,
		ctx: ctx, cancel: cancel,
		state: StateQueued, updated: make(chan struct{}), created: time.Now(),
	}
}

// notifyLocked wakes every waiting subscriber. Callers hold j.mu.
func (j *job) notifyLocked() {
	close(j.updated)
	j.updated = make(chan struct{})
}

func (j *job) setRunning() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateRunning
	j.started = time.Now()
	j.notifyLocked()
}

// finish moves the job to a terminal state exactly once; later calls (for
// example a cancel racing completion) are ignored. It also releases the
// job's context: the context derives from the server's base context, and a
// derived context stays registered on its parent until cancelled — without
// this, every finished job would leak its context (and the goroutine
// propagating the parent's cancellation) for as long as it stayed in the
// retention window.
func (j *job) finish(state string, err error) {
	j.mu.Lock()
	if terminal(j.state) {
		j.mu.Unlock()
		return
	}
	j.state = state
	if err != nil && state == StateFailed {
		j.errMsg = err.Error()
	}
	j.finished = time.Now()
	// Release before notifying, so whoever observes the terminal state
	// also observes the released context.
	j.cancel()
	j.notifyLocked()
	j.mu.Unlock()
}

func (j *job) appendCell(rec CellRecord) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.records = append(j.records, rec)
	j.notifyLocked()
}

func (j *job) stateNow() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// next returns the records at and beyond the cursor, the current state,
// and a channel that closes on the next change — the subscription
// primitive behind NDJSON/SSE streaming.
func (j *job) next(from int) ([]CellRecord, string, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var recs []CellRecord
	if from < len(j.records) {
		recs = j.records[from:len(j.records):len(j.records)]
	}
	return recs, j.state, j.updated
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.id,
		State:     j.state,
		Type:      j.typ,
		Mode:      j.mode,
		Cells:     len(j.cells),
		Completed: len(j.records),
		Error:     j.errMsg,
		CreatedAt: j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}
