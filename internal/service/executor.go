package service

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"

	"mdworm/internal/ckpt"
	"mdworm/internal/core"
	"mdworm/internal/experiments"
	"mdworm/internal/obs"
	"mdworm/internal/stats"
)

// Executor carries out the work a Server admits. The Server owns the front
// door — auth, admission, the journal's job records, the result cache,
// stream ordering, error mapping, drain, health and metrics — and hands each
// admitted job to its Executor. New uses the in-process executor;
// internal/cluster supplies one that dispatches to a fleet of peer daemons.
type Executor interface {
	// Attach hands the executor the server's journal (nil without a cache
	// directory) and result cache, before recovery re-enqueues any job.
	Attach(j *Journal, c *Cache)
	// Run computes one admitted run job's RunResponse body and publishes it
	// to the cache. The stats carry the simulated cycles even when the run
	// fails.
	Run(job RunJob) ([]byte, JobStats, error)
	// SweepContext returns the context an experiment's sweep runs under,
	// given its client's; client is nil for an experiment the journal still
	// holds after a restart, and an error then fails that job instead of
	// re-running it.
	SweepContext(client context.Context, req ExperimentRequest) (context.Context, error)
	// Sweep sets how an experiment's points resolve: how many at once and
	// where. o.Context is already final (deadline included).
	Sweep(req ExperimentRequest, o *experiments.Options)
	// WriteMetrics appends the executor's own families to /metrics.
	WriteMetrics(p *obs.PromWriter)
}

// Fleet is implemented by executors backed by peer daemons; their server
// also serves POST /v1/cluster/join and GET /v1/cluster/status.
type Fleet interface {
	// Join adds a peer base URL and returns the membership after it.
	Join(peer string) ([]string, error)
	// Status is the body of GET /v1/cluster/status.
	Status() any
}

// RunJob is one admitted run: a canonical configuration and its hash, an
// optional checkpoint blob to resume from, and the client's deadline.
type RunJob struct {
	Hash           string
	Config         core.Config
	Resume         []byte
	DeadlineMillis int64
}

// local is the in-process executor: runs simulate on the server's own pool
// workers, checkpointed into the cache directory when configured, and
// sweeps die with their client.
type local struct {
	dir     string // cache directory ("" = no checkpoints)
	every   int64  // checkpoint period in simulated cycles (0 = off)
	journal *Journal
	cache   *Cache
}

func (l *local) Attach(j *Journal, c *Cache) { l.journal, l.cache = j, c }

// Run builds a simulator (restoring from the job's checkpoint blob when it
// has one), runs it — checkpointed when configured — and publishes the
// response bytes to the cache. A corrupt, missing, or mismatched checkpoint
// degrades to a scratch re-run: recovery is never worse than not having
// checkpointed, and determinism makes the result identical either way. The
// blob's embedded config must hash back to this job's hash — a cluster
// coordinator attaches blobs across the network, and a stale or misrouted
// blob must not silently compute a different config's result under this
// hash.
func (l *local) Run(job RunJob) ([]byte, JobStats, error) {
	var sim *core.Simulator
	if len(job.Resume) > 0 {
		if restored, err := core.Restore(job.Resume); err == nil {
			if h, _, err := Hash(restored.Config()); err == nil && h == job.Hash {
				sim = restored
			}
		}
	}
	if sim == nil {
		fresh, err := core.New(job.Config)
		if err != nil {
			return nil, JobStats{}, err
		}
		sim = fresh
	}
	defer sim.Release() // the response bytes and stats are copied out first

	var res stats.Results
	var err error
	occupancy := 0
	if l.every > 0 && l.journal != nil {
		// A snapshotting run carries no occupancy capture (Snapshot refuses
		// attachments that live outside the checkpoint); durability wins
		// over one /metrics histogram.
		ckptFile := l.checkpointPath(job.Hash)
		res, err = sim.RunCheckpointed(l.every, func(data []byte, cycle int64) error {
			if werr := ckpt.WriteFile(ckptFile, data); werr != nil {
				return nil // best-effort durability; the run itself continues
			}
			l.journal.Record(JournalRec{Kind: recCheckpoint, Hash: job.Hash, JobKind: "run", File: ckptFile, Cycle: cycle})
			return nil
		})
	} else {
		// A coarse samples-only capture (no tracer) feeds the occupancy
		// histogram of /metrics without perturbing the run.
		occ := &obs.Capture{SampleEvery: 256}
		sim.Observe(occ)
		res, err = sim.Run()
		occupancy = occ.Summary().PeakOccupancy()
	}
	st := JobStats{Points: 1, Cycles: sim.Now(), Violations: sim.Invariants().Total(), Occupancy: occupancy}
	if err != nil {
		return nil, st, err
	}
	b, err := json.Marshal(RunResponse{Hash: job.Hash, Config: job.Config, Results: res, SimulatedCycles: sim.Now()})
	if err != nil {
		return nil, st, err
	}
	if l.cache != nil {
		l.cache.Put(job.Hash, b)
	}
	if l.dir != "" {
		os.Remove(l.checkpointPath(job.Hash)) // the published result supersedes any checkpoint
	}
	return b, st, nil
}

// checkpointPath returns where a run job's checkpoint blob lives; the hash
// key is already restricted to hex (validKey), so it cannot escape the
// cache directory.
func (l *local) checkpointPath(hash string) string {
	return filepath.Join(l.dir, hash+".ckpt")
}

// SweepContext ties a sweep to its client: a disconnect cancels pending
// points instead of simulating for nobody, and an experiment interrupted by
// a restart is failed, since its streaming client is gone and its points
// land in no cache.
func (l *local) SweepContext(client context.Context, _ ExperimentRequest) (context.Context, error) {
	if client == nil {
		return nil, errors.New("interrupted by daemon restart")
	}
	return client, nil
}

// Sweep resolves points on the request's share of the server's workers,
// sampling buffer occupancy for /metrics.
func (l *local) Sweep(req ExperimentRequest, o *experiments.Options) {
	o.Workers = req.Workers
	o.Observer = &obs.SweepObserver{SampleEvery: 256}
}

func (l *local) WriteMetrics(*obs.PromWriter) {}

// Simulate runs one canonical configuration in process and encodes its
// RunResponse body — exactly the bytes a daemon serves for it. The stats
// carry the simulated cycles even when the run fails.
func Simulate(hash string, canon core.Config) ([]byte, JobStats, error) {
	return (&local{}).Run(RunJob{Hash: hash, Config: canon})
}

// retryableError marks a failure as infrastructure-transient: repeating the
// identical request (after peers heal or breakers close) can succeed.
type retryableError struct{ err error }

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }

// Retryable marks err as transient. Failures that are properties of the
// request itself (deadlock, invariant violation, budget) are never marked.
func Retryable(err error) error { return &retryableError{err: err} }

// IsRetryable reports whether err is transient — marked Retryable, or a
// deadline or cancellation — rather than a property of the request.
func IsRetryable(err error) bool {
	var re *retryableError
	return errors.As(err, &re) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}
