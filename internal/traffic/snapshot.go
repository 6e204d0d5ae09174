package traffic

import "fmt"

// States returns the position of every per-node random stream at the start
// of cycle now, in node order, for checkpointing: exactly the positions
// drawing one Bernoulli per window cycle (plus each arrival's request draws)
// would have reached.
func (g *Generator) States(now int64) []uint64 {
	out := make([]uint64, len(g.nodes))
	for i := range g.nodes {
		out[i] = g.position(&g.nodes[i], now)
	}
	return out
}

// SetStates repositions every per-node stream to its position at the start
// of cycle now and stops generation there; SetWindow resumes it. The slice
// must cover exactly the generator's nodes.
func (g *Generator) SetStates(states []uint64, now int64) error {
	if len(states) != len(g.nodes) {
		return fmt.Errorf("traffic: %d stream states for %d nodes", len(states), len(g.nodes))
	}
	for i, s := range states {
		g.nodes[i] = stream{base: s, from: now, at: noArrival}
	}
	g.end, g.next = now, noArrival
	return nil
}
