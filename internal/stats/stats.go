// Package stats aggregates simulation measurements: latency distributions
// per traffic class (using the last-arrival multicast latency definition of
// Nupairoj and Ni), delivered throughput, and saturation heuristics.
package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Summary describes a sample distribution.
type Summary struct {
	Count int
	Mean  float64
	Min   float64
	P50   float64
	P95   float64
	P99   float64
	Max   float64
	// CI95 is the half-width of a 95% confidence interval for the mean,
	// computed by the method of batch means over the samples in
	// completion order (simulation samples are serially correlated, so
	// per-sample variance would understate the interval). Zero when there
	// are too few samples to batch.
	CI95 float64
}

// Summarize computes a Summary from raw samples (not modified).
func Summarize(samples []float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return Summary{
		Count: len(s),
		Mean:  sum / float64(len(s)),
		Min:   s[0],
		P50:   quantile(s, 0.50),
		P95:   quantile(s, 0.95),
		P99:   quantile(s, 0.99),
		Max:   s[len(s)-1],
		CI95:  batchMeansCI(samples),
	}
}

// batchMeansCI computes the 95% confidence half-width for the mean using 10
// batch means over the samples in their original (completion) order.
func batchMeansCI(samples []float64) float64 {
	const batches = 10
	if len(samples) < 2*batches {
		return 0
	}
	per := len(samples) / batches
	means := make([]float64, batches)
	for b := 0; b < batches; b++ {
		sum := 0.0
		for i := b * per; i < (b+1)*per; i++ {
			sum += samples[i]
		}
		means[b] = sum / float64(per)
	}
	grand := 0.0
	for _, m := range means {
		grand += m
	}
	grand /= batches
	varSum := 0.0
	for _, m := range means {
		varSum += (m - grand) * (m - grand)
	}
	stderr := math.Sqrt(varSum / (batches - 1) / batches)
	const t9 = 2.262 // Student t, 9 degrees of freedom, 95%
	return t9 * stderr
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// String renders a compact summary.
func (s Summary) String() string {
	if s.Count == 0 {
		return "n=0"
	}
	ci := ""
	if s.CI95 > 0 {
		ci = fmt.Sprintf("±%.1f", s.CI95)
	}
	return fmt.Sprintf("n=%d mean=%.1f%s p50=%.1f p95=%.1f max=%.1f",
		s.Count, s.Mean, ci, s.P50, s.P95, s.Max)
}

// ClassCollector accumulates per-class measurements inside the measurement
// window.
type ClassCollector struct {
	OpsGenerated int64
	OpsCompleted int64
	// LastArrival holds one sample per completed op: creation to the tail
	// flit at the last destination.
	LastArrival []float64
	// MeanArrival holds the per-op mean destination latency.
	MeanArrival []float64
	// MessagesSent counts injected messages attributed to completed ops.
	MessagesSent int64
	// DeliveredPayloadFlits counts payload flits arriving at destinations.
	DeliveredPayloadFlits int64
}

// CollectiveCollector accumulates per-rep measurements of a phase-structured
// collective workload (barrier, broadcast, ...). Degraded reps (any step lost
// destinations to a fault) complete but yield no latency samples. Per-phase
// samples tile exactly: for every healthy rep the per-phase latencies sum to
// the rep's end-to-end last-arrival latency.
type CollectiveCollector struct {
	// Active marks a run with a collective workload; Kind and NumPhases
	// describe its schedule.
	Active    bool
	Kind      string
	NumPhases int

	Started   int64 // reps begun
	Completed int64 // reps whose every step finished
	Degraded  int64 // completed reps that lost destinations to faults

	// LastArrival is the rep's end-to-end latency: rep start to the last
	// delivery of the final phase. Skew is the arrival spread across the
	// destinations of the final phase (release/broadcast fan-out).
	LastArrival []float64
	Skew        []float64
	// Phases[p] holds per-rep latencies attributed to phase p+1, defined
	// cumulatively (T_p = max(T_{p-1}, last completion of phase p+1)) so
	// they tile LastArrival exactly.
	Phases [][]float64
}

// Collector gathers everything a run reports.
type Collector struct {
	// WarmupEnd and MeasureEnd delimit the measurement window in cycles;
	// ops *created* inside the window are measured.
	WarmupEnd  int64
	MeasureEnd int64

	Unicast   ClassCollector
	Multicast ClassCollector

	// Coll accumulates the collective workload, when one is configured.
	Coll CollectiveCollector

	// DeliveredFlits counts every flit arriving at a NIC in the window
	// (headers included), for raw network throughput.
	DeliveredFlits int64

	// Fault-degradation accounting (whole run, not windowed): ops that lost
	// at least one destination, individual destinations lost, and ops whose
	// every destination was lost.
	OpsDegraded  int64
	DestsDropped int64
	OpsDropped   int64
}

// InWindow reports whether an op created at the given cycle is measured.
func (c *Collector) InWindow(created int64) bool {
	return created >= c.WarmupEnd && created < c.MeasureEnd
}

// Class returns the collector for the given multicast-ness.
func (c *Collector) Class(multicast bool) *ClassCollector {
	if multicast {
		return &c.Multicast
	}
	return &c.Unicast
}

// WindowCycles returns the measurement window length.
func (c *Collector) WindowCycles() int64 { return c.MeasureEnd - c.WarmupEnd }

// ClassResults summarizes one traffic class.
type ClassResults struct {
	OpsGenerated int64
	OpsCompleted int64
	LastArrival  Summary
	MeanArrival  Summary
	// MessagesPerOp is the average number of injected messages a
	// completed op required (1 for hardware bit-string multicast, about d
	// for software schemes).
	MessagesPerOp float64
	// DeliveredPayloadPerNodeCycle is payload throughput at destinations.
	DeliveredPayloadPerNodeCycle float64
}

// CollectiveResults summarizes a run's collective workload.
type CollectiveResults struct {
	// Kind names the collective (barrier, broadcast, all-reduce, ...).
	Kind string
	// Started, Completed, and Degraded count reps (degraded reps finished
	// but lost destinations to faults and yield no latency samples).
	Started   int64
	Completed int64
	Degraded  int64
	// LastArrival is the end-to-end per-rep latency; Skew the arrival
	// spread across the final phase's destinations.
	LastArrival Summary
	Skew        Summary
	// Phases holds per-phase latency summaries; for every rep the phase
	// samples sum exactly to that rep's LastArrival sample.
	Phases []Summary
}

// Results is the full outcome of a run.
type Results struct {
	Cycles    int64 // measurement window length
	Nodes     int
	Unicast   ClassResults
	Multicast ClassResults
	// DeliveredFlitsPerNodeCycle is raw flit throughput at NICs
	// (headers included).
	DeliveredFlitsPerNodeCycle float64
	// Saturated flags a run whose completion rate lagged generation by
	// more than 5% — latencies are then queue-growth artifacts.
	Saturated bool
	// MaxSendQueue is the largest injection queue seen across NICs.
	MaxSendQueue int
	// DrainCycles is how long the post-measurement drain took (0 if the
	// run was cut off instead of drained).
	DrainCycles int64

	// Collective summarizes the collective workload, if one was configured.
	Collective *CollectiveResults `json:",omitempty"`

	// Fault-degradation and verification outcome of the run. Degraded ops
	// completed with some destinations accounted as dropped (they yield no
	// latency samples); InvariantViolations counts checker hits (always 0
	// on a healthy model).
	OpsDegraded         int64
	DestsDropped        int64
	OpsDropped          int64
	InvariantViolations int64
}

// Clone returns a deep copy of the results: the collective summary and its
// phase slice are copied, so the clone shares no memory with r.
func (r Results) Clone() Results {
	if r.Collective != nil {
		c := *r.Collective
		c.Phases = slices.Clone(c.Phases)
		r.Collective = &c
	}
	return r
}

// Finalize converts the collector into results for n nodes.
func (c *Collector) Finalize(n int, maxSendQueue int) Results {
	w := float64(c.WindowCycles())
	r := Results{
		Cycles:       c.WindowCycles(),
		Nodes:        n,
		MaxSendQueue: maxSendQueue,
		OpsDegraded:  c.OpsDegraded,
		DestsDropped: c.DestsDropped,
		OpsDropped:   c.OpsDropped,
	}
	class := func(cc *ClassCollector) ClassResults {
		cr := ClassResults{
			OpsGenerated: cc.OpsGenerated,
			OpsCompleted: cc.OpsCompleted,
			LastArrival:  Summarize(cc.LastArrival),
			MeanArrival:  Summarize(cc.MeanArrival),
		}
		if cc.OpsCompleted > 0 {
			cr.MessagesPerOp = float64(cc.MessagesSent) / float64(cc.OpsCompleted)
		}
		if w > 0 {
			cr.DeliveredPayloadPerNodeCycle = float64(cc.DeliveredPayloadFlits) / w / float64(n)
		}
		return cr
	}
	r.Unicast = class(&c.Unicast)
	r.Multicast = class(&c.Multicast)
	if c.Coll.Active {
		cr := &CollectiveResults{
			Kind:        c.Coll.Kind,
			Started:     c.Coll.Started,
			Completed:   c.Coll.Completed,
			Degraded:    c.Coll.Degraded,
			LastArrival: Summarize(c.Coll.LastArrival),
			Skew:        Summarize(c.Coll.Skew),
			Phases:      make([]Summary, len(c.Coll.Phases)),
		}
		for p, samples := range c.Coll.Phases {
			cr.Phases[p] = Summarize(samples)
		}
		r.Collective = cr
	}
	if w > 0 {
		r.DeliveredFlitsPerNodeCycle = float64(c.DeliveredFlits) / w / float64(n)
	}
	gen := c.Unicast.OpsGenerated + c.Multicast.OpsGenerated
	done := c.Unicast.OpsCompleted + c.Multicast.OpsCompleted
	if gen > 20 && float64(done) < 0.95*float64(gen) {
		r.Saturated = true
	}
	return r
}
