package centralbuf

import (
	"mdworm/internal/bitset"
	"mdworm/internal/flit"
	"mdworm/internal/switches"
)

// In-switch barrier combining (the switch enhancement for barrier
// synchronization studied in the authors' companion work): hosts inject
// single-flit barrier tokens; each switch on the designated spanning tree
// (every switch follows its first up port) counts arriving tokens instead of
// routing them, emits one combined token upward when all of its down-port
// subtrees have reported, and — at the root — broadcasts release tokens back
// down the same tree until every host receives one. Tokens bypass the
// central buffer entirely (they are one flit and carry no payload); they are
// consumed at the input FIFO head and re-emitted at packet boundaries on the
// output FIFOs, so they interleave safely with data traffic.
//
// One barrier may be in flight at a time (counters are per-switch scalars);
// the core driver enforces this.

type pendingToken struct {
	port int
	worm *flit.Worm
}

// expectedTokens returns how many down-port subtrees report into this
// switch: one per down port with any processor below.
func (s *Switch) expectedTokens() int {
	if s.expected == 0 {
		for _, pn := range s.node.DownPorts() {
			if !s.node.Ports[pn].Reach.Empty() {
				s.expected++
			}
		}
	}
	return s.expected
}

// handleToken consumes an arriving barrier token (already popped from the
// input FIFO) and advances the combine/release protocol.
func (s *Switch) handleToken(port int, w *flit.Worm) {
	if switches.Ascending(s.node, port) {
		s.combineCount++
		s.stats.TokensCombined++
		if s.combineCount < s.expectedTokens() {
			return
		}
		// Subtree complete: reset and either forward up or release.
		s.combineCount = 0
		ups := s.node.UpPorts()
		if len(ups) > 0 {
			s.emitToken(ups[0], nil, w.Msg.Op)
			return
		}
		// Root of the spanning tree: release downward.
		s.emitRelease(w.Msg.Op)
		return
	}
	// Descending release token: replicate to every reporting down port.
	s.emitRelease(w.Msg.Op)
}

// emitRelease sends a release token down every down port with processors
// below.
func (s *Switch) emitRelease(op *flit.Op) {
	for _, pn := range s.node.DownPorts() {
		pt := &s.node.Ports[pn]
		if pt.Reach.Empty() {
			continue
		}
		var dest *int
		if pt.Proc >= 0 {
			dest = &pt.Proc
		}
		s.emitToken(pn, dest, op)
	}
}

// emitToken queues a switch-generated single-flit token for the output
// port; when dest is non-nil the token is addressed to that processor.
func (s *Switch) emitToken(port int, dest *int, op *flit.Op) {
	msg := &flit.Message{
		ID:          s.ids.Next(),
		Class:       flit.ClassBarrier,
		HeaderFlits: 1,
		Op:          op,
	}
	dests := bitset.New(s.node.ReachAll().Cap())
	if dest != nil {
		msg.Dests = []int{*dest}
		dests.Add(*dest)
	}
	w := s.sim.Arena().Worm()
	*w = flit.Worm{ID: s.ids.Next(), Msg: msg, Dests: dests}
	s.pendingTok = append(s.pendingTok, pendingToken{port: port, worm: w})
	s.sim.Progress()
}

// drainTokens moves queued tokens into output FIFOs at packet boundaries
// (an idle, unbound output whose FIFO does not end mid-worm).
func (s *Switch) drainTokens() {
	if len(s.pendingTok) == 0 {
		return
	}
	kept := s.pendingTok[:0]
	for _, pt := range s.pendingTok {
		st := &s.out[pt.port]
		boundary := st.mode == outIdle && len(st.queue) == 0 &&
			(st.fifo.Len() == 0 || st.fifo.Last().Tail())
		if boundary && st.fifo.Len() < s.cfg.OutFIFOFlits {
			st.fifo.Push(flit.Ref{W: pt.worm, Idx: 0})
			s.outBusy.Add(pt.port)
			s.stats.TokensEmitted++
			s.sim.Progress()
			continue
		}
		kept = append(kept, pt)
	}
	s.pendingTok = kept
}

// tokenQuiesced reports whether no barrier state is held.
func (s *Switch) tokenQuiesced() bool {
	return s.combineCount == 0 && len(s.pendingTok) == 0
}
