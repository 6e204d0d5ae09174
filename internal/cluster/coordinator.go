package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mdworm/internal/core"
	"mdworm/internal/experiments"
	"mdworm/internal/service"
	"mdworm/internal/stats"
)

// Journal record kinds private to the coordinator. All three are unknown to
// ReplayJournal and deliberately skipped on replay: shard records are the
// fleet's dispatch audit trail ("which peer ran which point, how often"),
// while recoverability rides on the job-level accepted/done records. The
// terminal shard kinds are distinct from "done"/"failed" so a /v1/run job —
// whose job hash equals its single shard's hash — cannot have its pending
// state closed out by its shard's completion record alone.
const (
	recShardDispatch = service.RecShard
	recShardDone     = "shard_done"
	recShardFailed   = "shard_failed"
)

// Config parameterizes a coordinator.
type Config struct {
	// Peers are the initial worker base URLs (e.g. "http://10.0.0.2:7077");
	// more may join at runtime through POST /v1/cluster/join. Their count
	// also sizes the coordinator's job pool (4 per peer + 4).
	Peers []string
	// CacheDir, when non-empty, persists the coordinator's job journal and
	// merged results there, giving the fleet "never lost, never double-run"
	// across coordinator restarts.
	CacheDir string
	// CacheEntries bounds the in-memory merged-result cache (0 = 1024).
	CacheEntries int
	// SweepWorkers bounds how many shards one experiment keeps in flight
	// (0 = 4 per peer + 4, refreshed per sweep).
	SweepWorkers int
	// HedgeAfter, when > 0, races one extra attempt on the next ring
	// successor for a shard that has produced no result after this long —
	// bounded straggler insurance, at most one hedge per shard. 0 disables.
	HedgeAfter time.Duration
	// HeartbeatEvery is the peer health-probe period (0 = 1s).
	HeartbeatEvery time.Duration
	// MirrorEvery is the checkpoint-mirror poll period for in-flight shards
	// (0 = 250ms).
	MirrorEvery time.Duration
	// DispatchTimeout bounds one shard attempt's /v1/run round trip
	// (0 = 5m).
	DispatchTimeout time.Duration
	// RetryDelay is the pause before re-asking a busy peer (0 = 250ms).
	RetryDelay time.Duration
	// JournalMaxBytes mirrors service.Config.JournalMaxBytes for the
	// coordinator's journal (0 = service.DefaultJournalMaxBytes; negative
	// disables size-triggered compaction).
	JournalMaxBytes int64
	// Tenants, when non-nil, turns on multi-tenant mode at the front door
	// exactly as service.Config.Tenants does. Worker-side fair-share
	// scheduling is the workers' own -tenants configuration.
	Tenants *service.TenantSet
	// WorkerKey, when non-empty, is presented as "Authorization: Bearer
	// <key>" on every shard dispatch and checkpoint-mirror request, so the
	// workers themselves may run with -tenants (the coordinator then occupies
	// one configured tenant slot there, typically high-weight).
	WorkerKey string
	// Transport, when non-nil, underlies every outbound request — dispatch,
	// checkpoint mirror, health probe. It is the chaos-injection seam: wrap
	// it with internal/chaos to subject the coordinator's view of the fleet
	// to seeded faults. Nil = http.DefaultTransport.
	Transport http.RoundTripper
	// Seed feeds the per-peer breaker jitter PRNGs (each peer's stream is
	// Seed xor a hash of its URL), making backoff schedules reproducible.
	Seed int64
	// BreakerThreshold is the consecutive dispatch failures that open a
	// peer's circuit breaker (0 = 3); BreakerBaseDelay is the first open
	// window (0 = 500ms), doubling per failed half-open trial up to
	// BreakerMaxDelay (0 = 30s).
	BreakerThreshold int
	BreakerBaseDelay time.Duration
	BreakerMaxDelay  time.Duration
	// ProbeTimeout bounds one peer health probe (0 = 2s).
	ProbeTimeout time.Duration
}

// Coordinator is a cluster mode mdwd: the one service.Server front door
// (embedded, so Handler, BeginDrain, Drain and ReloadTenants are the
// server's) over this package's remote executor, which resolves every run
// and every standard sweep point on a fleet of peer daemons.
type Coordinator struct {
	*service.Server

	cfg     Config
	peers   *PeerSet
	cache   *service.Cache   // the server's result cache
	journal *service.Journal // the server's journal; nil without a cache directory
	client  *http.Client

	baseCtx context.Context
	stop    context.CancelFunc

	mu       sync.Mutex
	inflight map[string]*call

	shardsInflight atomic.Int64
	hedges         atomic.Int64
	migrations     atomic.Int64
}

// New builds a coordinator — its server recovers the journal — and starts
// the peer health-probe loop.
func New(cfg Config) (*Coordinator, error) {
	ctx, cancel := context.WithCancel(context.Background())
	peers := NewPeerSet(nil)
	peers.ConfigureBreakers(breakerConfig{Threshold: cfg.BreakerThreshold,
		BaseDelay: cfg.BreakerBaseDelay, MaxDelay: cfg.BreakerMaxDelay}, cfg.Seed)
	peers.SetProbeTimeout(cfg.ProbeTimeout)
	for _, u := range cfg.Peers {
		peers.Join(u)
	}
	c := &Coordinator{
		cfg:      cfg,
		peers:    peers,
		client:   &http.Client{Transport: cfg.Transport},
		baseCtx:  ctx,
		stop:     cancel,
		inflight: make(map[string]*call),
	}
	// A coordinator job mostly waits on the network, so its pool is as wide
	// as a sweep's shard fan-out over the configured fleet.
	srv, err := service.NewWithExecutor(service.Config{
		Workers:         fanOut(len(cfg.Peers)),
		CacheEntries:    cfg.CacheEntries,
		CacheDir:        cfg.CacheDir,
		JournalMaxBytes: cfg.JournalMaxBytes,
		Tenants:         cfg.Tenants,
	}, c)
	if err != nil {
		cancel()
		return nil, err
	}
	c.Server = srv
	go c.probeLoop()
	return c, nil
}

// Close stops the probe loop and background machinery. In-flight shard
// attempts are cut off at their next context check.
func (c *Coordinator) Close() { c.stop() }

// probeLoop keeps peer health marks fresh.
func (c *Coordinator) probeLoop() {
	every := c.cfg.HeartbeatEvery
	if every <= 0 {
		every = time.Second
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-c.baseCtx.Done():
			return
		case <-t.C:
			c.peers.ProbeAll(c.baseCtx, c.client)
		}
	}
}

// Attach implements service.Executor: shard results share the server's
// cache, and shard records its journal.
func (c *Coordinator) Attach(j *service.Journal, cache *service.Cache) {
	c.journal, c.cache = j, cache
}

// Run implements service.Executor: the run is one shard, resolved through
// the fleet on the coordinator's own context, so it completes and lands in
// the cache even when its client gave up.
func (c *Coordinator) Run(job service.RunJob) ([]byte, service.JobStats, error) {
	res, err := c.resolveShard(c.baseCtx, job.Hash, job.Config, job.DeadlineMillis)
	return res.body, service.JobStats{Points: 1, Cycles: res.cycles, Violations: res.res.InvariantViolations}, err
}

// SweepContext implements service.Executor: a sweep runs on the
// coordinator's context, not its client's. A dropped connection stops the
// stream, but the shards keep resolving into caches and the job is still
// journaled done, so the client's reconnect (same stream token, its last
// seq as after_seq) replays only what it missed — from cache, cheaply. For
// the same reason an experiment pending at restart is re-resolved
// headlessly, provided its journaled request survives.
func (c *Coordinator) SweepContext(client context.Context, req service.ExperimentRequest) (context.Context, error) {
	if client == nil && req.ID == "" {
		return nil, errors.New("interrupted by coordinator restart (no replayable request journaled)")
	}
	return c.baseCtx, nil
}

// Sweep implements service.Executor: standard points resolve as shards
// through the fleet (custom-harness points run locally; see
// experiments.Options.Resolver), with the client's deadline forwarded.
func (c *Coordinator) Sweep(req service.ExperimentRequest, o *experiments.Options) {
	ctx := o.Context
	o.Workers = c.sweepWorkers()
	o.Resolver = func(cfg core.Config, _ string) (stats.Results, int64, error) {
		hash, canon, err := service.Hash(cfg)
		if err != nil {
			return stats.Results{}, 0, err
		}
		res, err := c.resolveShard(ctx, hash, canon, req.DeadlineMillis)
		return res.res, res.cycles, err
	}
}

// fanOut is how many shards n peers keep busy: 4 per peer plus 4.
func fanOut(n int) int { return 4*max(n, 1) + 4 }

// sweepWorkers returns the shard fan-out bound for one experiment.
func (c *Coordinator) sweepWorkers() int {
	if c.cfg.SweepWorkers > 0 {
		return c.cfg.SweepWorkers
	}
	return fanOut(c.peers.HealthyCount())
}

// Join implements service.Fleet: a worker announcing itself lands on the
// ring.
func (c *Coordinator) Join(peer string) ([]string, error) {
	if !strings.HasPrefix(peer, "http://") && !strings.HasPrefix(peer, "https://") {
		return nil, fmt.Errorf("peer %q is not an http(s) base URL", peer)
	}
	c.peers.Join(strings.TrimRight(peer, "/"))
	views := c.peers.Views()
	urls := make([]string, len(views))
	for i, v := range views {
		urls[i] = v.URL
	}
	return urls, nil
}

// StatusResponse is the body of GET /v1/cluster/status.
type StatusResponse struct {
	Peers           []PeerView `json:"peers"`
	HealthyPeers    int        `json:"healthy_peers"`
	ShardsInflight  int64      `json:"shards_inflight"`
	HedgesTotal     int64      `json:"hedges_total"`
	MigrationsTotal int64      `json:"migrations_total"`
	JournalBytes    int64      `json:"journal_bytes,omitempty"`
	Draining        bool       `json:"draining"`
}

// Status implements service.Fleet.
func (c *Coordinator) Status() any {
	return StatusResponse{
		Peers:           c.peers.Views(),
		HealthyPeers:    c.peers.HealthyCount(),
		ShardsInflight:  c.shardsInflight.Load(),
		HedgesTotal:     c.hedges.Load(),
		MigrationsTotal: c.migrations.Load(),
		JournalBytes:    c.journal.Size(),
		Draining:        c.Draining(),
	}
}
