package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mdworm/internal/core"
	"mdworm/internal/engine"
	"mdworm/internal/experiments"
	"mdworm/internal/obs"
	"mdworm/internal/stats"
)

// Config parameterizes the daemon.
type Config struct {
	// Workers bounds concurrent simulation jobs (0 = 1 per default; cmd/mdwd
	// defaults it to GOMAXPROCS).
	Workers int
	// Backlog bounds queued-but-unstarted jobs (0 = 4*Workers).
	Backlog int
	// CacheEntries bounds the in-memory result cache (0 = 1024).
	CacheEntries int
	// CacheDir, when non-empty, persists results on disk (write-through;
	// survives restarts).
	CacheDir string
	// MaxCycles caps the simulated cycles (warmup+measure+drain ceiling) a
	// single run request may ask for; 0 means no server-wide cap. Requests
	// may lower it per call with cycle_budget, never raise it.
	MaxCycles int64
	// RunTimeout bounds how long a /v1/run handler waits for its job; the
	// job keeps running (and populates the cache) after the handler gives
	// up with 504. 0 = 2 minutes.
	RunTimeout time.Duration
	// CheckpointEvery, when > 0 and CacheDir is set, checkpoints every run
	// job's simulator state every that many simulated cycles and journals
	// the blob reference, so a killed daemon resumes interrupted runs from
	// the last checkpoint on restart instead of starting over. 0 disables
	// mid-run checkpointing (interrupted runs then re-run from scratch).
	CheckpointEvery int64
	// JobDeadline, when > 0, fails a job that waited in the queue longer
	// than this instead of running it (its client has long given up; the
	// cache would still have been populated had it run, but the queue slot
	// is better spent on live requests). 0 = no deadline.
	JobDeadline time.Duration
	// JournalMaxBytes bounds the job journal's file size: past it, the
	// journal is compacted in place down to its pending-job records, so
	// long runs (a cluster coordinator's shard records especially) cannot
	// grow it unboundedly. 0 = 8 MiB; negative disables size-triggered
	// compaction (restart compaction still applies).
	JournalMaxBytes int64
	// Tenants, when non-nil, turns on multi-tenant mode: every /v1 request
	// must authenticate with "Authorization: Bearer <key>" against this set,
	// jobs are scheduled on per-tenant weighted queues, and /metrics gains
	// mdwd_tenant_* families. Nil preserves the single-tenant daemon exactly:
	// no auth, one anonymous queue, unchanged responses.
	Tenants *TenantSet
	// DeadlineCyclesPerSec, when > 0, converts a request's deadline_ms
	// into a deterministic cycle budget (deadline seconds × this rate,
	// the daemon's calibrated simulation speed): a run that cannot fit
	// its client's deadline is rejected up front with the structured
	// cycle_budget_exceeded error instead of burning workers on a result
	// nobody will wait for. 0 leaves deadlines as wall-clock wait bounds
	// only.
	DeadlineCyclesPerSec float64
}

// DefaultJournalMaxBytes is the journal size threshold when
// Config.JournalMaxBytes is 0.
const DefaultJournalMaxBytes = 8 << 20

// Server is mdwd's one HTTP front door: auth, admission, the job journal,
// the content-addressed cache, stream ordering, error mapping, drain, health
// and metrics behind one http.Handler, with execution handed to an Executor
// (in process, or a cluster's fleet).
type Server struct {
	cfg     Config
	exec    Executor
	pool    *Pool
	cache   *Cache
	journal *Journal // nil without a cache directory
	mux     *http.ServeMux
	start   time.Time

	// tcMu guards tcount, the per-tenant request accounting (only populated
	// in multi-tenant mode; the Cache itself stays tenant-blind — results
	// are content-addressed and shared).
	tcMu   sync.Mutex
	tcount map[string]*tenantCounters

	// tenMu guards ten, the live tenant table. It starts as cfg.Tenants and
	// is swapped whole by ReloadTenants (SIGHUP); requests resolve keys
	// against whichever table was live when they arrived.
	tenMu sync.RWMutex
	ten   *TenantSet
}

// tenants returns the live tenant table (nil in single-tenant mode).
func (s *Server) tenants() *TenantSet {
	s.tenMu.RLock()
	defer s.tenMu.RUnlock()
	return s.ten
}

// ReloadTenants atomically replaces the tenant table with a reloaded one:
// new keys authenticate immediately, removed keys stop authenticating,
// and existing queues take their new weights, priorities, and quotas in
// place without dropping a single queued job. Multi-tenant mode itself is
// fixed at startup — a daemon started without tenants cannot gain them (nor
// vice versa), because flipping auth on or off under live clients is never
// what a reload means.
func (s *Server) ReloadTenants(ts *TenantSet) error {
	if ts == nil || len(ts.Tenants()) == 0 {
		return fmt.Errorf("service: refusing to reload an empty tenant table")
	}
	s.tenMu.Lock()
	defer s.tenMu.Unlock()
	if s.ten == nil {
		return fmt.Errorf("service: daemon started single-tenant; cannot enable tenants at runtime")
	}
	s.ten = ts
	s.pool.UpdateTenants(ts)
	return nil
}

// tenantCounters is one tenant's request accounting at the front door.
type tenantCounters struct{ runs, experiments, hits, misses int64 }

// New builds a server that simulates in process and starts its worker pool.
func New(cfg Config) (*Server, error) {
	return NewWithExecutor(cfg, &local{dir: cfg.CacheDir, every: cfg.CheckpointEvery})
}

// NewWithExecutor builds a server that hands its jobs to exec, recovers the
// cache directory's journal, and starts its worker pool.
func NewWithExecutor(cfg Config, exec Executor) (*Server, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.CacheEntries < 1 {
		cfg.CacheEntries = 1024
	}
	if cfg.RunTimeout <= 0 {
		cfg.RunTimeout = 2 * time.Minute
	}
	cache, err := NewCache(cfg.CacheEntries, cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		exec:   exec,
		pool:   NewPool(cfg.Workers, cfg.Backlog),
		cache:  cache,
		mux:    http.NewServeMux(),
		start:  time.Now(),
		tcount: make(map[string]*tenantCounters),
		ten:    cfg.Tenants,
	}
	s.pool.SetDeadline(cfg.JobDeadline)
	s.pool.SetTenants(cfg.Tenants)
	if err := s.recover(); err != nil {
		return nil, err
	}
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/experiment", s.handleExperiment)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/cluster/checkpoint/{hash}", s.handleCheckpoint)
	if f, ok := exec.(Fleet); ok {
		s.mux.HandleFunc("POST /v1/cluster/join", func(w http.ResponseWriter, r *http.Request) { s.handleJoin(w, r, f) })
		s.mux.HandleFunc("GET /v1/cluster/status", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(f.Status())
		})
	}
	return s, nil
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain flips the server into shutdown mode: new job-creating requests
// are rejected with 503 while queued and running jobs continue.
func (s *Server) BeginDrain() { s.pool.BeginDrain() }

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.pool.Draining() }

// Drain stops intake and waits up to timeout for in-flight jobs to finish.
func (s *Server) Drain(timeout time.Duration) bool { return s.pool.Drain(timeout) }

// apiError is the structured error body of every non-2xx JSON response.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Job     string `json:"job,omitempty"`
	// RetryAfterSeconds mirrors the Retry-After header on 429/503 rejections
	// so structured clients need not parse headers.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
	// Retryable tells clients whether repeating the identical request can
	// succeed: true for transient conditions (busy, quota, draining,
	// timeout), false for properties of the request itself (bad config,
	// deadlock, exceeded cycle budget).
	Retryable bool `json:"retryable,omitempty"`
	// Deadlock (code "deadlock" only) is the watchdog's report, so a
	// coordinator can rebuild the exact error its worker hit.
	Deadlock *engine.DeadlockError `json:"deadlock,omitempty"`
	// SimulatedCycles (failed runs only) is how far the run got.
	SimulatedCycles int64 `json:"simulated_cycles,omitempty"`
}

func writeErr(w http.ResponseWriter, status int, e apiError) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]apiError{"error": e})
}

// writeRejected maps a Submit failure to its backpressure response: 429
// "quota" past the tenant's own queue cap, 429 "busy" for a full global
// backlog, 503 "draining" during shutdown (distinct codes, so clients know
// whether to retry soon or find another daemon), all with a Retry-After
// estimate in header and body. The estimate is computed from the rejected
// tenant's queue, not the global one: a quota-limited tenant is never told
// to wait out other tenants' backlogs (with no tenants configured, the one
// anonymous queue makes this the historical global estimate).
func (s *Server) writeRejected(w http.ResponseWriter, err error, t *Tenant) {
	secs := int(s.pool.RetryAfterTenant(t).Round(time.Second).Seconds())
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	switch {
	case errors.Is(err, ErrTenantQueueFull):
		writeErr(w, http.StatusTooManyRequests, apiError{
			Code: "quota", Message: err.Error(), RetryAfterSeconds: secs, Retryable: true})
	case errors.Is(err, ErrPoolFull):
		writeErr(w, http.StatusTooManyRequests, apiError{
			Code: "busy", Message: err.Error(), RetryAfterSeconds: secs, Retryable: true})
	case errors.Is(err, ErrDraining):
		writeErr(w, http.StatusServiceUnavailable, apiError{
			Code: "draining", Message: err.Error(), RetryAfterSeconds: secs, Retryable: true})
	default:
		writeErr(w, http.StatusServiceUnavailable, apiError{
			Code: "unavailable", Message: err.Error(), RetryAfterSeconds: secs, Retryable: true})
	}
}

// tenantFor authenticates a request. With no tenants configured every
// request belongs to the anonymous tenant; in multi-tenant mode the request
// must present "Authorization: Bearer <key>" for a configured key, or it is
// rejected with a structured 401 (the response is already written when ok is
// false).
func (s *Server) tenantFor(w http.ResponseWriter, r *http.Request) (t *Tenant, ok bool) {
	ts := s.tenants()
	if ts == nil {
		return anonymous, true
	}
	h := r.Header.Get("Authorization")
	if h == "" {
		s.writeUnauthorized(w, `missing Authorization header (want "Bearer <key>")`)
		return nil, false
	}
	scheme, key, found := strings.Cut(h, " ")
	key = strings.TrimSpace(key)
	if !found || !strings.EqualFold(scheme, "Bearer") || key == "" {
		s.writeUnauthorized(w, `malformed Authorization header (want "Bearer <key>")`)
		return nil, false
	}
	t = ts.LookupKey(key)
	if t == nil {
		s.writeUnauthorized(w, "unknown API key")
		return nil, false
	}
	return t, true
}

func (s *Server) writeUnauthorized(w http.ResponseWriter, msg string) {
	w.Header().Set("WWW-Authenticate", `Bearer realm="mdwd"`)
	writeErr(w, http.StatusUnauthorized, apiError{Code: "unauthorized", Message: msg})
}

// countTenant applies one accounting update for a tenant (multi-tenant mode
// only).
func (s *Server) countTenant(t *Tenant, f func(*tenantCounters)) {
	if s.tenants() == nil {
		return
	}
	s.tcMu.Lock()
	defer s.tcMu.Unlock()
	tc := s.tcount[t.Name]
	if tc == nil {
		tc = &tenantCounters{}
		s.tcount[t.Name] = tc
	}
	f(tc)
}

// RunRequest is the body of POST /v1/run.
type RunRequest struct {
	Config ConfigRequest `json:"config"`
	// RawConfig, when present, is a fully resolved core.Config and takes
	// precedence over Config. It is the daemon-to-daemon dispatch form: a
	// cluster coordinator forwards the exact canonical config it hashed, so
	// worker-side resolution cannot drift from the coordinator's shard key.
	RawConfig *core.Config `json:"raw_config,omitempty"`
	// CycleBudget caps this run's simulated cycles
	// (warmup+measure+drain); it may tighten the server's MaxCycles,
	// never exceed it.
	CycleBudget int64 `json:"cycle_budget,omitempty"`
	// Resume, when non-empty, is a checkpoint blob (core.Snapshot bytes) to
	// resume the run from instead of starting at cycle zero — the shard
	// migration path: a coordinator re-dispatching a dead worker's shard
	// attaches the last mirrored checkpoint. The blob's embedded config must
	// hash to this request's config hash, or it is ignored and the run
	// starts from scratch (determinism makes the result identical).
	Resume []byte `json:"resume,omitempty"`
	// DeadlineMillis, when > 0, is how long the client is willing to wait
	// for this response, propagated from the front door (a coordinator
	// forwards its client's remaining budget on every dispatch). It
	// tightens the handler's wait below RunTimeout, and — when the server
	// configures DeadlineCyclesPerSec — converts into a deterministic
	// cycle-budget cap checked up front.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
}

// RunResponse is the body of a successful POST /v1/run. Cache hits return
// the original miss's bytes verbatim, so the body never encodes hit/miss
// state — that travels in the X-Mdwd-Cache header.
type RunResponse struct {
	Hash    string        `json:"hash"`
	Config  core.Config   `json:"config"`
	Results stats.Results `json:"results"`
	// SimulatedCycles is sim.Now() at the end of the run, so remote
	// resolvers can report the same per-point cycle counts local runs do.
	SimulatedCycles int64 `json:"simulated_cycles"`
}

// totalCycles is the simulated-cycle ceiling of a resolved config: warmup
// and measurement run exactly, the drain at most DrainCycles.
func totalCycles(cfg core.Config) int64 {
	return cfg.WarmupCycles + cfg.MeasureCycles + cfg.DrainCycles
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	tn, ok := s.tenantFor(w, r)
	if !ok {
		return
	}
	var req RunRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, apiError{Code: "bad_request", Message: err.Error()})
		return
	}
	var cfg core.Config
	if req.RawConfig != nil {
		cfg = *req.RawConfig
	} else {
		resolved, err := req.Config.Resolve()
		if err != nil {
			writeErr(w, http.StatusBadRequest, apiError{Code: "bad_config", Message: err.Error()})
			return
		}
		cfg = resolved
	}
	hash, canon, err := Hash(cfg)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, apiError{Code: "invalid_config", Message: err.Error()})
		return
	}
	budget := s.cfg.MaxCycles
	if req.CycleBudget > 0 && (budget == 0 || req.CycleBudget < budget) {
		budget = req.CycleBudget
	}
	if req.DeadlineMillis > 0 && s.cfg.DeadlineCyclesPerSec > 0 {
		// The client's wall-clock deadline becomes a deterministic cycle
		// cap: same config, same deadline, same verdict, on any replica.
		derived := int64(s.cfg.DeadlineCyclesPerSec * float64(req.DeadlineMillis) / 1000)
		if derived < 1 {
			derived = 1
		}
		if budget == 0 || derived < budget {
			budget = derived
		}
	}
	if budget > 0 && totalCycles(canon) > budget {
		writeErr(w, http.StatusUnprocessableEntity, apiError{
			Code: "cycle_budget_exceeded",
			Message: fmt.Sprintf("config needs up to %d simulated cycles, budget is %d",
				totalCycles(canon), budget),
		})
		return
	}

	if body, ok := s.cache.Get(hash); ok {
		s.countTenant(tn, func(tc *tenantCounters) { tc.runs++; tc.hits++ })
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Mdwd-Cache", "hit")
		w.Header().Set("X-Mdwd-Hash", hash)
		w.Header().Set("X-Mdwd-Body-SHA256", BodySHA(body))
		w.Write(body)
		return
	}
	s.countTenant(tn, func(tc *tenantCounters) { tc.runs++; tc.misses++ })

	// Write-ahead: the job is journaled accepted (with its canonical config)
	// before it is queued, so a crash at any later point can rebuild it.
	canonJSON, err := json.Marshal(canon)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, apiError{Code: "internal", Message: err.Error()})
		return
	}
	s.journal.Record(JournalRec{Kind: recAccepted, Hash: hash, JobKind: "run", Tenant: tn.Name, Config: canonJSON})

	var body []byte
	rj := RunJob{Hash: hash, Config: canon, Resume: req.Resume, DeadlineMillis: req.DeadlineMillis}
	job, err := s.pool.SubmitTenant("run", hash, tn, func() (JobStats, error) {
		b, st, err := s.exec.Run(rj)
		body = b
		return st, err
	})
	if err != nil {
		// The WAL entry must not outlive the rejection, or a restart would
		// resurrect a job whose client was told to retry.
		s.journal.Record(JournalRec{Kind: recFailed, Hash: hash, JobKind: "run", Tenant: tn.Name, Error: err.Error()})
		s.writeRejected(w, err, tn)
		return
	}

	wait := s.cfg.RunTimeout
	if d := time.Duration(req.DeadlineMillis) * time.Millisecond; req.DeadlineMillis > 0 && d < wait {
		wait = d
	}
	timeout := time.NewTimer(wait)
	defer timeout.Stop()
	select {
	case <-job.Done():
	case <-r.Context().Done():
		// Client gone; the job still finishes and populates the cache.
		return
	case <-timeout.C:
		writeErr(w, http.StatusGatewayTimeout, apiError{
			Code: "timeout", Job: job.ID, Retryable: true,
			Message: fmt.Sprintf("run exceeded the %s wait deadline; it continues in the background (poll /v1/jobs/%s, then repeat the request for a cache hit)",
				wait, job.ID),
		})
		return
	}
	if v, _ := s.pool.Get(job.ID); v.State == JobFailed {
		writeRunErr(w, job.ID, s.pool.Err(job.ID), v.Cycles)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Mdwd-Cache", "miss")
	w.Header().Set("X-Mdwd-Hash", hash)
	w.Header().Set("X-Mdwd-Job", job.ID)
	w.Header().Set("X-Mdwd-Body-SHA256", BodySHA(body))
	w.Write(body)
}

// BodySHA is the end-to-end integrity digest travelling in the
// X-Mdwd-Body-SHA256 header of /v1/run responses. The coordinator verifies
// the bytes it read against it, so response corruption anywhere on the
// path (proxies, chaos injection, flaky NICs) is detected and retried
// instead of silently merged into a sweep.
func BodySHA(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// recover replays the cache directory's journal, compacts it, and closes
// out every job the previous process left behind: finished-but-unjournaled
// runs are marked done (their result is in the cache), unfinished runs are
// re-enqueued — from their last checkpoint when one survives, from scratch
// otherwise — and unfinished experiments go back to the executor, which
// either re-resolves them headlessly or refuses (they are then failed). An
// accepted job is therefore never silently lost, and a finished one never
// re-runs. Without a cache directory it only attaches the executor.
func (s *Server) recover() error {
	var pending []PendingJob
	if dir := s.cfg.CacheDir; dir != "" {
		var err error
		if pending, err = ReplayJournal(dir); err != nil {
			return err
		}
		if s.journal, err = ResetJournal(dir); err != nil {
			return err
		}
		switch {
		case s.cfg.JournalMaxBytes > 0:
			s.journal.SetMaxBytes(s.cfg.JournalMaxBytes)
		case s.cfg.JournalMaxBytes == 0:
			s.journal.SetMaxBytes(DefaultJournalMaxBytes)
		}
	}
	s.exec.Attach(s.journal, s.cache)
	s.pool.onStart = func(job *Job) {
		s.journal.Record(JournalRec{Kind: recRunning, Hash: job.Detail, JobKind: job.Kind, Tenant: job.Tenant})
	}
	s.pool.onFinish = func(job *Job, jerr error) {
		rec := JournalRec{Kind: recDone, Hash: job.Detail, JobKind: job.Kind, Tenant: job.Tenant}
		if jerr != nil {
			rec.Kind = recFailed
			rec.Error = jerr.Error()
		}
		s.journal.Record(rec)
	}

	for _, p := range pending {
		fail := func(msg string) {
			s.journal.Record(JournalRec{Kind: recFailed, Hash: p.Hash, JobKind: p.JobKind, Error: msg})
		}
		switch {
		case p.JobKind == "experiment":
			var req ExperimentRequest
			json.Unmarshal(p.Config, &req) // legacy records carry no request
			ctx, err := s.exec.SweepContext(nil, req)
			if err != nil {
				fail(err.Error())
				continue
			}
			s.journal.Record(JournalRec{Kind: recAccepted, Hash: p.Hash, JobKind: "experiment", Tenant: p.Tenant, Config: p.Config})
			s.pool.enqueueRecovered("experiment", p.Hash, p.Tenant, func() (JobStats, error) {
				return s.sweep(ctx, req, func(StreamEvent) {})
			})
		case len(p.Config) == 0:
			fail("journal carries no configuration for this job")
		default:
			if _, ok := s.cache.Get(p.Hash); ok {
				// The run finished and published its result, but the crash
				// beat the journal's done record; close it out.
				s.journal.Record(JournalRec{Kind: recDone, Hash: p.Hash, JobKind: "run"})
				continue
			}
			var canon core.Config
			if err := json.Unmarshal(p.Config, &canon); err != nil {
				fail(fmt.Sprintf("journaled config does not parse: %v", err))
				continue
			}
			s.journal.Record(JournalRec{Kind: recAccepted, Hash: p.Hash, JobKind: "run", Tenant: p.Tenant, Config: p.Config})
			hash, ckptFile := p.Hash, p.Checkpoint
			s.pool.enqueueRecovered("run", hash, p.Tenant, func() (JobStats, error) {
				var resume []byte
				if ckptFile != "" {
					resume, _ = os.ReadFile(ckptFile) // absent blob → scratch re-run
				}
				_, st, err := s.exec.Run(RunJob{Hash: hash, Config: canon, Resume: resume})
				return st, err
			})
		}
	}
	return nil
}

// writeRunErr maps a failed run job to a structured error: deadlocks and
// invariant violations are properties of the requested configuration (422,
// with their own codes, so fault studies can script against them); a
// recovered panic is a server fault (500); anything else is run_failed,
// retryable when the executor marked it transient. Either way the job slot
// is free again — failures never hang or poison the pool. cycles is how far
// the failed run got.
func writeRunErr(w http.ResponseWriter, jobID string, err error, cycles int64) {
	e := apiError{Code: "run_failed", Message: fmt.Sprint(err), Job: jobID, SimulatedCycles: cycles,
		Retryable: IsRetryable(err)}
	status := http.StatusUnprocessableEntity
	var ie *engine.InvariantError
	switch {
	case errors.As(err, &e.Deadlock):
		e.Code = "deadlock"
	case errors.As(err, &ie):
		e.Code = "invariant_violation"
	case errors.Is(err, ErrJobPanic):
		e.Code, status = "internal", http.StatusInternalServerError
	}
	writeErr(w, status, e)
}

// DecodeError reads a peer daemon's non-2xx /v1/run body back into the
// error it reports and the simulated cycles the failed run reached. A
// deadlock comes back as the *engine.DeadlockError the peer hit, so a
// coordinator reports it exactly as an in-process run would; anything else
// is the body's message, or the raw body truncated.
func DecodeError(body []byte) (cycles int64, err error) {
	var b struct {
		Error apiError `json:"error"`
	}
	switch {
	case json.Unmarshal(body, &b) != nil || b.Error.Message == "":
		if len(body) > 200 {
			body = body[:200]
		}
		return 0, errors.New(string(bytes.TrimSpace(body)))
	case b.Error.Code == "deadlock" && b.Error.Deadlock != nil:
		return b.Error.SimulatedCycles, b.Error.Deadlock
	default:
		return b.Error.SimulatedCycles, errors.New(b.Error.Message)
	}
}

// ExperimentRequest is the body of POST /v1/experiment.
type ExperimentRequest struct {
	// ID is a registered experiment id (see GET /v1/experiments).
	ID string `json:"id"`
	// Quick shrinks windows and point counts.
	Quick bool `json:"quick,omitempty"`
	// Seed drives all runs (0 = 1).
	Seed uint64 `json:"seed,omitempty"`
	// Workers bounds the sweep's internal parallelism; it is capped at
	// the server's worker budget. 0 = that budget.
	Workers int `json:"workers,omitempty"`
	// Stream resumes an interrupted stream: the token the start event of
	// the earlier attempt carried. The rest of the request must repeat
	// the original parameters (the sweep is deterministic, so the server
	// re-resolves and re-streams the identical event sequence).
	Stream string `json:"stream,omitempty"`
	// AfterSeq is the resume cursor: the highest seq the client has
	// already durably consumed. Points with seq <= AfterSeq are not
	// re-delivered. Only meaningful with Stream.
	AfterSeq int64 `json:"after_seq,omitempty"`
	// DeadlineMillis, when > 0, bounds the whole sweep: past it the
	// stream ends with a structured, retryable error event instead of
	// hanging.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
}

// StreamEvent is one chunked JSON line of a POST /v1/experiment response:
// "start", then one "point" per planned measurement (in planned table
// order, each carrying its seq cursor), one "table" per rendered table,
// and finally "done" — or "error".
type StreamEvent struct {
	Type string `json:"type"`

	// start / error
	ID  string `json:"id,omitempty"`
	Job string `json:"job,omitempty"`
	Err string `json:"error,omitempty"`
	// Stream (start only) is the resume token for this logical stream.
	Stream string `json:"stream,omitempty"`
	// Retryable (error only) tells the client whether reconnecting with
	// the same request (plus the stream cursor) can succeed.
	Retryable bool `json:"retryable,omitempty"`

	// Seq (point only) is the 1-based planned-order position — the resume
	// cursor a reconnecting client passes back as after_seq.
	Seq int64 `json:"seq,omitempty"`

	// point
	Tag        string  `json:"tag,omitempty"`
	X          float64 `json:"x,omitempty"`
	McastLat   float64 `json:"mcast_lat,omitempty"`
	UniLat     float64 `json:"uni_lat,omitempty"`
	Throughput float64 `json:"throughput,omitempty"`
	Saturated  bool    `json:"saturated,omitempty"`
	Dropped    int64   `json:"dropped,omitempty"`
	Violations int64   `json:"violations,omitempty"`

	// table
	Text string `json:"text,omitempty"`

	// done (and point: Cycles)
	Points      int     `json:"points,omitempty"`
	Cycles      int64   `json:"simulated_cycles,omitempty"`
	WallSeconds float64 `json:"wall_seconds,omitempty"`
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	tn, ok := s.tenantFor(w, r)
	if !ok {
		return
	}
	var req ExperimentRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, apiError{Code: "bad_request", Message: err.Error()})
		return
	}
	known := false
	for _, id := range experiments.IDs() {
		if id == req.ID {
			known = true
			break
		}
	}
	if !known {
		writeErr(w, http.StatusNotFound, apiError{Code: "unknown_experiment",
			Message: fmt.Sprintf("unknown experiment %q (GET /v1/experiments lists ids)", req.ID)})
		return
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	if req.Workers <= 0 || req.Workers > s.cfg.Workers {
		req.Workers = s.cfg.Workers
	}
	if req.Stream != "" && !ValidStreamToken(req.Stream) {
		writeErr(w, http.StatusBadRequest, apiError{Code: "bad_stream",
			Message: fmt.Sprintf("%q is not a stream token", req.Stream)})
		return
	}
	if req.AfterSeq < 0 {
		writeErr(w, http.StatusBadRequest, apiError{Code: "bad_cursor",
			Message: "after_seq must be >= 0"})
		return
	}
	if req.Stream == "" {
		req.Stream = NewStreamToken()
		req.AfterSeq = 0
	}

	// The worker goroutine runs the sweep and feeds events through a
	// channel; this handler goroutine alone touches the ResponseWriter. The
	// executor picks the sweep's context: the client's (a disconnect cancels
	// pending points) or its own (the sweep outlives the stream and lands in
	// caches for the reconnect). A client deadline additionally bounds the
	// sweep, and its expiry must still reach a connected client as an error
	// event — so emit escapes on client death only, never on deadline.
	clientCtx := r.Context()
	sweepCtx, err := s.exec.SweepContext(clientCtx, req)
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, apiError{Code: "unavailable", Message: err.Error(), Retryable: true})
		return
	}
	if req.DeadlineMillis > 0 {
		var cancel context.CancelFunc
		sweepCtx, cancel = context.WithTimeout(sweepCtx, time.Duration(req.DeadlineMillis)*time.Millisecond)
		defer cancel()
	}
	events := make(chan StreamEvent, 64)
	emit := func(ev StreamEvent) {
		select {
		case events <- ev:
		case <-clientCtx.Done():
		}
	}
	// Experiments are journaled with their full request, so a restart can
	// hand them back to the executor — to re-resolve, or to report failed
	// instead of losing an accepted job without a trace.
	reqJSON, err := json.Marshal(req)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, apiError{Code: "internal", Message: err.Error()})
		return
	}
	s.journal.Record(JournalRec{Kind: recAccepted, Hash: req.ID, JobKind: "experiment", Tenant: tn.Name, Config: reqJSON})
	job, err := s.pool.SubmitTenant("experiment", req.ID, tn, func() (JobStats, error) {
		defer close(events)
		return s.sweep(sweepCtx, req, emit)
	})
	if err != nil {
		s.journal.Record(JournalRec{Kind: recFailed, Hash: req.ID, JobKind: "experiment", Tenant: tn.Name, Error: err.Error()})
		s.writeRejected(w, err, tn)
		return
	}
	s.countTenant(tn, func(tc *tenantCounters) { tc.experiments++ })

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Mdwd-Job", job.ID)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	enc.Encode(StreamEvent{Type: "start", ID: req.ID, Job: job.ID, Stream: req.Stream})
	if flusher != nil {
		flusher.Flush()
	}
	for ev := range events {
		enc.Encode(ev)
		if flusher != nil {
			flusher.Flush()
		}
	}
	<-job.Done()
}

// sweep runs one experiment through the executor and emits the stream after
// "start": points in planned table order (not completion order, so the
// sequence is deterministic for any worker or peer count — the property
// behind both the seq resume cursor and cluster/single-node byte-identity),
// minus those a resuming client already consumed; then the tables and
// "done", or an "error".
func (s *Server) sweep(ctx context.Context, req ExperimentRequest, emit func(StreamEvent)) (JobStats, error) {
	ro := NewReorder(nil, func(seq int64, ev experiments.PointEvent) {
		if seq > 0 && seq <= req.AfterSeq {
			return
		}
		out := StreamEvent{
			Type: "point", Seq: seq, Tag: ev.Tag, X: ev.X,
			McastLat: ev.McastLatency, UniLat: ev.UniLatency,
			Throughput: ev.Throughput, Saturated: ev.Saturated,
			Dropped: ev.DestsDropped, Violations: ev.Violations,
			Cycles: ev.Cycles,
		}
		if ev.Err != nil {
			out.Err = ev.Err.Error()
		}
		emit(out)
	})
	opts := experiments.Options{Quick: req.Quick, Seed: req.Seed, Context: ctx, OnPoint: ro.Add}
	s.exec.Sweep(req, &opts)
	ids := []string{req.ID}
	emitErr := func(err error) {
		emit(StreamEvent{Type: "error", ID: req.ID, Err: err.Error(), Retryable: IsRetryable(err)})
	}
	tables, err := experiments.Plan(ids, opts)
	if err != nil {
		emitErr(err)
		return JobStats{}, err
	}
	// Points only resolve during Finish, so installing the planned order
	// here — between Plan and Finish — races nothing.
	ro.Reindex(experiments.PlannedTags(tables))
	st, err := experiments.Finish(ids, tables, opts)
	ro.Flush()
	jst := JobStats{Points: st.Points, Cycles: st.Cycles, Violations: st.Violations,
		Occupancy: st.Occupancy.PeakOccupancy()}
	if err != nil {
		emitErr(err)
		return jst, err
	}
	for _, t := range tables {
		var buf strings.Builder
		t.Format(&buf)
		emit(StreamEvent{Type: "table", ID: t.ID, Text: buf.String()})
	}
	emit(StreamEvent{Type: "done", ID: req.ID, Points: st.Points,
		Cycles: st.Cycles, WallSeconds: st.Wall.Seconds()})
	return jst, nil
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string][]string{"experiments": experiments.IDs()})
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	tn, ok := s.tenantFor(w, r)
	if !ok {
		return
	}
	views := s.pool.List()
	if s.tenants() != nil {
		// Multi-tenant mode scopes the listing: a tenant sees its own jobs
		// only.
		views = s.pool.ListTenant(tn.Name)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string][]JobView{"jobs": views})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	tn, ok := s.tenantFor(w, r)
	if !ok {
		return
	}
	v, found := s.pool.Get(r.PathValue("id"))
	if !found || (s.tenants() != nil && v.Tenant != tn.Name) {
		// Another tenant's job is indistinguishable from a nonexistent one:
		// job ids are sequential, and existence alone leaks traffic shape.
		writeErr(w, http.StatusNotFound, apiError{Code: "unknown_job",
			Message: fmt.Sprintf("no job %q", r.PathValue("id"))})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// handleCheckpoint serves the current checkpoint blob of a run job, keyed by
// config hash. A cluster coordinator mirrors these while a shard is in
// flight, so that when the worker later dies without warning (kill -9) the
// coordinator still holds a blob to migrate the shard with. 404 simply means
// "no checkpoint right now" — not yet written, already superseded by a
// published result, or checkpointing disabled — and the mirroring client
// treats it as a no-op.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	// In multi-tenant mode the mirror endpoint requires a valid key like the
	// rest of /v1 (a cluster coordinator authenticates with its worker key);
	// blobs are not tenant-scoped — they are keyed by content hash.
	if _, ok := s.tenantFor(w, r); !ok {
		return
	}
	hash := r.PathValue("hash")
	if !validKey(hash) {
		writeErr(w, http.StatusBadRequest, apiError{Code: "bad_hash",
			Message: fmt.Sprintf("%q is not a config hash", hash)})
		return
	}
	if s.cfg.CacheDir == "" {
		writeErr(w, http.StatusNotFound, apiError{Code: "no_checkpoint",
			Message: "daemon runs without a cache directory"})
		return
	}
	blob, err := os.ReadFile(filepath.Join(s.cfg.CacheDir, hash+".ckpt"))
	if err != nil {
		writeErr(w, http.StatusNotFound, apiError{Code: "no_checkpoint",
			Message: fmt.Sprintf("no checkpoint for %s", hash)})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(blob)
}

// JoinRequest is the body of POST /v1/cluster/join.
type JoinRequest struct {
	// Peer is the joining worker's base URL as the coordinator should dial
	// it.
	Peer string `json:"peer"`
}

// JoinResponse acknowledges a join with the current membership.
type JoinResponse struct {
	Peers []string `json:"peers"`
}

// handleJoin adds a worker to the executor's fleet.
func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request, f Fleet) {
	var req JoinRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, apiError{Code: "bad_request", Message: err.Error()})
		return
	}
	peers, err := f.Join(req.Peer)
	if err != nil {
		writeErr(w, http.StatusBadRequest, apiError{Code: "bad_peer", Message: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(JoinResponse{Peers: peers})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.pool.Draining() {
		// Load balancers and retrying clients read the hint even off the
		// plain-text health probe.
		secs := int(s.pool.RetryAfter().Round(time.Second).Seconds())
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleMetrics reports the daemon's counters in the Prometheus text
// exposition format (version 0.0.4): the historical metric names (same
// currency as BENCH_sweep.json — points and simulated cycles, with rates
// over in-job busy time) plus job-latency and run-occupancy histograms. See
// README.md for the field reference.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	counts := s.pool.Counts()
	points, cycles, busy := s.pool.Totals()
	violations, deadlocks := s.pool.FaultTotals()
	jobSeconds, runOccupancy := s.pool.Histograms()
	hits, misses, entries := s.cache.Stats()

	var pps, cps float64
	if sec := busy.Seconds(); sec > 0 {
		pps = float64(points) / sec
		cps = float64(cycles) / sec
	}

	w.Header().Set("Content-Type", obs.PromContentType)
	p := &obs.PromWriter{W: w}
	p.Gauge("mdwd_up_seconds", "Seconds since the daemon started.", time.Since(s.start).Seconds())
	p.Gauge("mdwd_workers", "Size of the simulation worker pool.", float64(s.cfg.Workers))
	states := make([]string, 0, len(counts))
	for st := range counts {
		states = append(states, string(st))
	}
	sort.Strings(states)
	for _, st := range states {
		p.Gauge("mdwd_jobs_"+st, "Jobs currently in the "+st+" state.", float64(counts[JobState(st)]))
	}
	p.Counter("mdwd_cache_hits", "Result-cache hits.", float64(hits))
	p.Counter("mdwd_cache_misses", "Result-cache misses.", float64(misses))
	p.Gauge("mdwd_cache_entries", "Result-cache entries resident in memory.", float64(entries))
	p.Counter("mdwd_points_total", "Independent simulator runs resolved.", float64(points))
	p.Counter("mdwd_simulated_cycles_total", "Simulated cycles across all runs.", float64(cycles))
	p.Counter("mdwd_invariant_violations_total", "Model-invariant checker hits across all runs.", float64(violations))
	p.Counter("mdwd_deadlocks_total", "Watchdog-reported deadlocks across all jobs.", float64(deadlocks))
	p.Counter("mdwd_busy_seconds", "In-job wall time across all workers.", busy.Seconds())
	p.Gauge("mdwd_points_per_sec", "Points resolved per busy second.", pps)
	p.Gauge("mdwd_cycles_per_sec", "Simulated cycles per busy second.", cps)
	p.Histogram("mdwd_job_seconds", "Job wall time in seconds.", jobSeconds)
	p.Histogram("mdwd_run_occupancy", "Peak sampled buffer occupancy per job (CB chunks or IB flits).", runOccupancy)
	if s.journal != nil {
		p.Gauge("mdwd_journal_bytes", "Size of the job journal.", float64(s.journal.Size()))
	}
	s.exec.WriteMetrics(p)

	// The mdwd_tenant_* families exist only in multi-tenant mode, keeping
	// the single-tenant exposition byte-compatible with older daemons.
	if s.tenants() != nil {
		s.writeTenantMetrics(p)
	}
}

// writeTenantMetrics renders the per-tenant families: one sample per
// configured tenant (zeros before its first request), labelled by tenant
// name.
func (s *Server) writeTenantMetrics(p *obs.PromWriter) {
	byName := make(map[string]TenantStat)
	for _, st := range s.pool.TenantStats() {
		byName[st.Name] = st
	}
	tenants := s.tenants().Tenants()
	sample := func(get func(t *Tenant, st TenantStat) float64) []obs.LabeledSample {
		out := make([]obs.LabeledSample, 0, len(tenants))
		for _, t := range tenants {
			out = append(out, obs.LabeledSample{
				Labels: [][2]string{{"tenant", t.Name}},
				Value:  get(t, byName[t.Name]),
			})
		}
		return out
	}
	s.tcMu.Lock()
	counts := make(map[string]tenantCounters, len(s.tcount))
	for name, tc := range s.tcount {
		counts[name] = *tc
	}
	s.tcMu.Unlock()

	p.LabeledGauge("mdwd_tenant_weight", "Configured fair-share weight per tenant.",
		sample(func(t *Tenant, _ TenantStat) float64 { return float64(t.Weight) }))
	p.LabeledGauge("mdwd_tenant_priority", "Configured priority class per tenant.",
		sample(func(t *Tenant, _ TenantStat) float64 { return float64(t.Priority) }))
	p.LabeledGauge("mdwd_tenant_jobs_queued", "Jobs waiting in each tenant's queue.",
		sample(func(_ *Tenant, st TenantStat) float64 { return float64(st.Queued) }))
	p.LabeledGauge("mdwd_tenant_jobs_running", "Jobs of each tenant running now.",
		sample(func(_ *Tenant, st TenantStat) float64 { return float64(st.Running) }))
	p.LabeledGauge("mdwd_tenant_jobs_completed", "Terminal jobs (done + failed) per tenant.",
		sample(func(_ *Tenant, st TenantStat) float64 { return float64(st.Completed) }))
	p.LabeledGauge("mdwd_tenant_jobs_failed", "Failed jobs per tenant.",
		sample(func(_ *Tenant, st TenantStat) float64 { return float64(st.Failed) }))
	p.LabeledGauge("mdwd_tenant_points_total", "Simulator runs resolved per tenant.",
		sample(func(_ *Tenant, st TenantStat) float64 { return float64(st.Points) }))
	p.LabeledGauge("mdwd_tenant_simulated_cycles_total", "Simulated cycles per tenant.",
		sample(func(_ *Tenant, st TenantStat) float64 { return float64(st.Cycles) }))
	p.LabeledGauge("mdwd_tenant_busy_seconds", "In-job wall time per tenant.",
		sample(func(_ *Tenant, st TenantStat) float64 { return st.Busy.Seconds() }))
	p.LabeledGauge("mdwd_tenant_runs_total", "Run requests accepted per tenant.",
		sample(func(t *Tenant, _ TenantStat) float64 { return float64(counts[t.Name].runs) }))
	p.LabeledGauge("mdwd_tenant_experiments_total", "Experiment requests accepted per tenant.",
		sample(func(t *Tenant, _ TenantStat) float64 { return float64(counts[t.Name].experiments) }))
	p.LabeledGauge("mdwd_tenant_cache_hits", "Result-cache hits per tenant.",
		sample(func(t *Tenant, _ TenantStat) float64 { return float64(counts[t.Name].hits) }))
	p.LabeledGauge("mdwd_tenant_cache_misses", "Result-cache misses per tenant.",
		sample(func(t *Tenant, _ TenantStat) float64 { return float64(counts[t.Name].misses) }))
}
