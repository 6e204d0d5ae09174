package cluster

import "mdworm/internal/obs"

// WriteMetrics implements service.Executor: the cluster-wide gauges the
// alerts watch (healthy peers, shards in flight, hedge and migration
// totals) plus per-peer health and load broken out by the peer label.
func (c *Coordinator) WriteMetrics(p *obs.PromWriter) {
	views := c.peers.Views()
	p.Gauge("mdwd_coordinator", "1 on a cluster coordinator (0 or absent on a worker daemon).", 1)
	p.Gauge("mdwd_peers", "Cluster members on the hash ring, healthy or not.", float64(len(views)))
	p.Gauge("mdwd_peers_healthy", "Cluster members currently passing health probes.", float64(c.peers.HealthyCount()))
	p.Gauge("mdwd_shards_inflight", "Shards currently dispatched and unresolved.", float64(c.shardsInflight.Load()))
	p.Counter("mdwd_shard_hedges_total", "Hedge attempts raced against straggler shards.", float64(c.hedges.Load()))
	p.Counter("mdwd_shard_migrations_total", "Shards migrated off a dead or rejecting peer.", float64(c.migrations.Load()))

	healthy := make([]obs.LabeledSample, 0, len(views))
	inflight := make([]obs.LabeledSample, 0, len(views))
	dispatched := make([]obs.LabeledSample, 0, len(views))
	brState := make([]obs.LabeledSample, 0, len(views))
	brOpens := make([]obs.LabeledSample, 0, len(views))
	for _, v := range views {
		labels := [][2]string{{"peer", v.URL}}
		h := 0.0
		if v.Healthy {
			h = 1
		}
		healthy = append(healthy, obs.LabeledSample{Labels: labels, Value: h})
		inflight = append(inflight, obs.LabeledSample{Labels: labels, Value: float64(v.Inflight)})
		dispatched = append(dispatched, obs.LabeledSample{Labels: labels, Value: float64(v.Dispatched)})
		s := 0.0
		switch v.Breaker {
		case "open":
			s = 1
		case "half-open":
			s = 2
		}
		brState = append(brState, obs.LabeledSample{Labels: labels, Value: s})
		brOpens = append(brOpens, obs.LabeledSample{Labels: labels, Value: float64(v.BreakerOpens)})
	}
	p.LabeledGauge("mdwd_peer_healthy", "Per-peer health mark (1 healthy, 0 down).", healthy)
	p.LabeledGauge("mdwd_peer_shards_inflight", "Shards currently dispatched to the peer.", inflight)
	p.LabeledGauge("mdwd_peer_shards_dispatched", "Shards dispatched to the peer over the coordinator's lifetime.", dispatched)
	p.LabeledGauge("mdwd_peer_breaker_state", "Per-peer circuit-breaker state (0 closed, 1 open, 2 half-open).", brState)
	p.LabeledGauge("mdwd_peer_breaker_opens_total", "Circuit-breaker trips per peer over the coordinator's lifetime.", brOpens)
}
