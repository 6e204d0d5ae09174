package inputbuf

import (
	"mdworm/internal/bitset"
	"mdworm/internal/flit"
	"mdworm/internal/switches"
)

// In-switch barrier combining for the input-buffered switch — the same
// protocol as the central-buffer implementation (see
// internal/switches/centralbuf/combine.go): ascending single-flit tokens are
// counted instead of routed, one combined token is forwarded up the
// designated spanning tree, and the root broadcasts release tokens back
// down. Tokens are emitted straight onto output links at packet boundaries
// (when the output is unbound), so they never interleave with a worm's
// flits.

type pendingToken struct {
	port int
	worm *flit.Worm
}

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

func (s *Switch) handleToken(port int, w *flit.Worm) {
	if switches.Ascending(s.node, port) {
		s.combineCount++
		s.stats.TokensCombined++
		if s.combineCount < s.expectedTokens() {
			return
		}
		s.combineCount = 0
		ups := s.node.UpPorts()
		if len(ups) > 0 {
			s.emitToken(ups[0], nil, w.Msg.Op)
			return
		}
		s.emitRelease(w.Msg.Op)
		return
	}
	s.emitRelease(w.Msg.Op)
}

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

// drainTokens sends queued tokens on unbound output links.
func (s *Switch) drainTokens(now int64) {
	if len(s.pendingTok) == 0 {
		return
	}
	kept := s.pendingTok[:0]
	for _, pt := range s.pendingTok {
		out := s.ports[pt.port].Out
		if s.out[pt.port].bound == nil && out != nil && out.CanSend(now) {
			out.Send(now, flit.Ref{W: pt.worm, Idx: 0})
			s.stats.TokensEmitted++
			continue
		}
		kept = append(kept, pt)
	}
	s.pendingTok = kept
}

func (s *Switch) tokenQuiesced() bool {
	return s.combineCount == 0 && len(s.pendingTok) == 0
}
