// Package inputbuf implements the input-buffer-based switch architecture of
// the paper: one FIFO buffer per input port, each large enough to hold the
// largest packet in the system, with asynchronous replication of
// multidestination worms performed at the input buffer. The head worm of an
// input requests all the output ports of its branch set; flits are forwarded
// to whichever outputs the worm has acquired so far, each branch advancing
// at its own pace (blocked branches do not block the others). A flit's
// buffer slot is freed — and its credit returned upstream — once every
// branch has forwarded it.
//
// Because an input buffer can hold an entire packet, an accepted
// multidestination worm can always be completely buffered, satisfying the
// paper's deadlock-freedom requirement. The price relative to the central
// buffer is static partitioning of buffer space and head-of-line blocking:
// everything behind the head worm of an input waits, even if its own output
// is free.
package inputbuf

import (
	"fmt"
	"math/bits"

	"mdworm/internal/bitset"
	"mdworm/internal/engine"
	"mdworm/internal/flit"
	"mdworm/internal/routing"
	"mdworm/internal/switches"
	"mdworm/internal/topology"
)

// Config holds the microarchitectural parameters of the switch.
type Config struct {
	// BufFlits is the capacity of each input buffer; it is also the
	// credit count granted to the upstream link and must be at least
	// MaxPacketFlits so a worm can always be fully buffered.
	BufFlits int
	// RouteDelay is the decode latency in cycles after a complete header
	// reaches the head of an input buffer.
	RouteDelay int
	// MaxPacketFlits bounds packet size.
	MaxPacketFlits int
	// SyncReplication switches multidestination forwarding from the
	// paper's asynchronous replication to the lock-step alternative it
	// argues against: a flit is forwarded only when *every* branch has
	// acquired its output and can move that flit in the same cycle, so a
	// blocked branch stalls all the others. Ablation knob; default off.
	// (With full-packet input buffers this costs latency, not deadlock.)
	SyncReplication bool
}

// DefaultConfig returns defaults matching the paper's requirement that each
// input buffer holds the largest packet, with a little slack.
func DefaultConfig() Config {
	return Config{BufFlits: 512 + 64, RouteDelay: 4, MaxPacketFlits: 512}
}

// Validate checks internal consistency.
func (c Config) Validate(maxHeaderFlits int) error {
	switch {
	case c.BufFlits < 1:
		return fmt.Errorf("inputbuf: buffer must hold >= 1 flit")
	case c.RouteDelay < 0:
		return fmt.Errorf("inputbuf: negative route delay")
	case c.BufFlits < c.MaxPacketFlits:
		return fmt.Errorf("inputbuf: buffer (%d flits) smaller than max packet (%d flits); "+
			"multidestination worms could not be fully buffered", c.BufFlits, c.MaxPacketFlits)
	case maxHeaderFlits > c.BufFlits:
		return fmt.Errorf("inputbuf: header (%d flits) exceeds input buffer (%d flits)", maxHeaderFlits, c.BufFlits)
	}
	return nil
}

// Stats exposes per-switch counters.
type Stats struct {
	switches.Stats
	GrantWaitSum    int64 // cycles branches spent requesting an output
	HOLBlockedSum   int64 // cycles an active input head moved no flit (grant, credit, or data stall)
	MaxBufOccupancy int
	TokensCombined  int64 // barrier tokens absorbed by the combining logic
	TokensEmitted   int64 // barrier tokens generated (combined-up or release)
}

type inputMode uint8

const (
	modeIdle inputMode = iota
	modeHeader
	modeDecode
	modeActive
	// modeSink consumes a head worm whose every branch died (fault
	// degradation): flits are freed as they arrive so upstream drains.
	modeSink
)

type wormRecv struct {
	w   *flit.Worm
	got int // flits received so far
}

type branch struct {
	in      int // owning input port
	out     int
	child   *flit.Worm
	sent    int
	granted bool
	done    bool
	reqAt   int64
}

type inputState struct {
	queue      []wormRecv // worms in the buffer, arrival order; [0] is head
	occupancy  int        // buffered flits not yet freed
	mode       inputMode
	decodeLeft int
	// branches are the head worm's branch records. A finished head leaves
	// them in the slice's spare capacity, where the next decode reuses
	// them; plans is the decode's branch buffer, reused the same way.
	branches []*branch
	plans    []switches.Planned
	minSent  int
	movedAt  int64 // last cycle any branch of this input forwarded a flit
}

type outputState struct {
	bound *branch
	arb   *switches.RoundRobin
}

// Switch is one input-buffered switch instance.
type Switch struct {
	cfg    Config
	node   *topology.Switch
	router *routing.Router
	ports  []switches.PortIO
	rng    *engine.RNG
	ids    *engine.IDGen
	sim    *engine.Simulation
	dec    routing.Decision // routing scratch, reused by every decode

	in  []inputState
	out []outputState

	// reqBits[o] has bit i set while input i holds a requestable (created,
	// ungranted, not yet done) branch for output o, so arbitration skips
	// outputs and inputs with nothing to ask in O(1) instead of rescanning
	// every branch list every cycle.
	reqBits []uint64

	// Port bitmaps, the switch's active sets: inBusy marks inputs that are
	// not idle or hold worms, wires input links with flits in flight (set
	// by Link.Send through BindWireMark), outBusy outputs bound to a
	// branch. An input or wire bit is set on every transition into busy
	// and cleared lazily by the port's own step once it finds the port
	// idle, so those masks are supersets of the busy ports; an output bit
	// is set on grant and cleared on release, so it is exact. The per-port
	// loops walk the set bits word by word, in the order a full scan would
	// visit the ports; no step sets a bit in the mask being walked, so a
	// word read once per walk loses nothing. Derived state: never
	// serialized (see DecodeState).
	inBusy, outBusy, wires bitset.Set

	// Barrier combining state (see combine.go).
	combineCount int
	expected     int
	pendingTok   []pendingToken

	stats Stats
}

// New creates a switch bound to its topology node and port links.
func New(cfg Config, node *topology.Switch, router *routing.Router, ports []switches.PortIO,
	rng *engine.RNG, ids *engine.IDGen, sim *engine.Simulation) *Switch {

	if len(ports) != node.NumPorts() {
		panic("inputbuf: port count mismatch")
	}
	if len(ports) > 64 {
		panic("inputbuf: request bitmap supports at most 64 ports")
	}
	s := &Switch{
		cfg:     cfg,
		node:    node,
		router:  router,
		ports:   ports,
		rng:     rng,
		ids:     ids,
		sim:     sim,
		in:      make([]inputState, len(ports)),
		out:     make([]outputState, len(ports)),
		reqBits: make([]uint64, len(ports)),
		inBusy:  bitset.New(len(ports)),
		outBusy: bitset.New(len(ports)),
		wires:   bitset.New(len(ports)),
	}
	for o := range s.out {
		s.out[o].arb = switches.NewRoundRobin(len(ports))
	}
	for i, pio := range ports {
		if pio.In != nil {
			pio.In.BindWireMark(&s.wires.Words()[i/64], i%64)
		}
	}
	return s
}

// Name identifies the switch in diagnostics.
func (s *Switch) Name() string {
	return fmt.Sprintf("ib-sw%d(s%d,%d)", s.node.ID, s.node.Stage, s.node.Pos)
}

// Stats returns a snapshot of the switch counters.
func (s *Switch) Stats() Stats { return s.stats }

// Occupancy returns an instantaneous snapshot of the buffered state for the
// observability probe.
func (s *Switch) Occupancy() switches.Occupancy {
	var o switches.Occupancy
	for i := range s.in {
		n := s.in[i].occupancy
		o.InputFlits += n
		if n > o.MaxInputQ {
			o.MaxInputQ = n
		}
	}
	return o
}

// InputCredits returns the credit count to grant on links feeding this
// switch (the input buffer capacity).
func (s *Switch) InputCredits() int { return s.cfg.BufFlits }

// Quiesced reports whether the switch holds no flits or packet state. Only
// ports with a set bit can be busy, and after a step every set bit is a
// busy port, so this returns at the first bit it visits.
func (s *Switch) Quiesced() bool {
	if !s.tokenQuiesced() || !s.outBusy.Empty() {
		return false
	}
	for w, word := range s.inBusy.Words() {
		for ; word != 0; word &= word - 1 {
			if !s.inputIdle(w<<6 | bits.TrailingZeros64(word)) {
				return false
			}
		}
	}
	return true
}

// inputIdle reports whether input i has no head in progress and no worms.
func (s *Switch) inputIdle(i int) bool {
	return s.in[i].mode == modeIdle && len(s.in[i].queue) == 0
}

// bind grants output o to branch b.
func (s *Switch) bind(o int, b *branch) {
	s.out[o].bound = b
	s.outBusy.Add(o)
}

// release frees output o.
func (s *Switch) release(o int) {
	s.out[o].bound = nil
	s.outBusy.Remove(o)
}

// CheckPortMasks verifies the port bitmaps against the state they summarize:
// every input whose bit is clear is idle, every output's bit matches its
// binding, and every input link with flits on the wire has its wire bit
// set. It is the soundness oracle tests run between steps.
func (s *Switch) CheckPortMasks() error {
	for i := range s.in {
		if !s.inBusy.Has(i) && !s.inputIdle(i) {
			return fmt.Errorf("%s: input %d busy (mode %d, %d worms) with its bit clear",
				s.Name(), i, s.in[i].mode, len(s.in[i].queue))
		}
		if s.outBusy.Has(i) != (s.out[i].bound != nil) {
			return fmt.Errorf("%s: output %d bit %v but bound=%v",
				s.Name(), i, s.outBusy.Has(i), s.out[i].bound != nil)
		}
		if l := s.ports[i].In; l != nil && l.InFlight() > 0 && !s.wires.Has(i) {
			return fmt.Errorf("%s: input link %s has %d flits in flight with its wire bit clear",
				s.Name(), l.Name(), l.InFlight())
		}
	}
	return nil
}

// Step advances the switch one cycle: bound branches forward flits,
// unbound outputs arbitrate among requesting branches, input heads decode,
// and new arrivals are accepted.
func (s *Switch) Step(now int64) {
	s.serveOutputs(now)
	s.drainTokens(now)
	s.dropDeadBranches(now)
	s.arbitrate(now)
	s.stepInputs(now)
	s.acceptArrivals(now)
}

// dropDeadBranches abandons branches whose output link died before they
// began sending; a branch that already sent its head finishes normally
// (failure lands at worm boundaries, so flit conservation holds). With no
// failed link in the simulation there is nothing to find.
func (s *Switch) dropDeadBranches(now int64) {
	if s.sim.FailedLinks() == 0 {
		return
	}
	for w, word := range s.inBusy.Words() {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			in := &s.in[i]
			if in.mode != modeActive {
				continue
			}
			for _, b := range in.branches {
				if b.done || b.sent > 0 {
					continue
				}
				out := s.ports[b.out].Out
				if out == nil || !out.Dead() {
					continue
				}
				s.reportDrop(now, b.child, b.child.Dests)
				b.done = true
				b.sent = in.queue[0].w.Len()
				if b.granted && s.out[b.out].bound == b {
					s.release(b.out)
				}
				if !b.granted {
					s.reqBits[b.out] &^= 1 << uint(i)
				}
			}
		}
	}
}

// reportDrop accounts destinations abandoned because of an injected fault.
func (s *Switch) reportDrop(now int64, w *flit.Worm, dropped bitset.Set) {
	n := flit.DropCost(w, dropped)
	if n == 0 {
		return
	}
	s.stats.WormsDropped++
	s.stats.DestsDropped += int64(dropped.Count())
	if s.sim.Tracing() {
		s.sim.Emit(engine.TraceEvent{Kind: engine.TraceDrop, Actor: s.Name(),
			Msg: w.Msg.ID, Worm: w.ID,
			Detail: fmt.Sprintf("dests=%v cost=%d", dropped.Members(), n)})
	}
	if s.router.OnDrop != nil {
		s.router.OnDrop(w.Msg, n, now)
	}
	s.sim.Progress()
}

// serveOutputs forwards one flit per bound output, directly onto the link.
// Under synchronous replication, a multidestination head moves a flit only
// when every branch can move it in lock-step.
func (s *Switch) serveOutputs(now int64) {
	if s.cfg.SyncReplication {
		s.serveOutputsSync(now)
		s.finishHeads(now)
		return
	}
	for w, word := range s.outBusy.Words() {
		for ; word != 0; word &= word - 1 {
			o := w<<6 | bits.TrailingZeros64(word)
			b := s.out[o].bound
			in := &s.in[b.in]
			head := &in.queue[0]
			if b.sent >= head.got || s.ports[o].Out == nil || !s.ports[o].Out.CanSend(now) {
				continue
			}
			s.ports[o].Out.Send(now, flit.Ref{W: b.child, Idx: b.sent})
			b.sent++
			in.movedAt = now
			s.stats.FlitsOut++
			if b.sent == head.w.Len() {
				b.done = true
				s.release(o)
			}
			s.advanceFreeing(b.in, now)
		}
	}
	s.finishHeads(now)
}

// serveOutputsSync forwards flits with all branches of a head advancing in
// lock-step (the feedback-coupled replication the paper rejects).
func (s *Switch) serveOutputsSync(now int64) {
	for w, word := range s.inBusy.Words() {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			in := &s.in[i]
			if in.mode != modeActive || len(in.branches) == 0 {
				continue
			}
			head := &in.queue[0]
			ready := true
			for _, b := range in.branches {
				if b.done {
					continue
				}
				if !b.granted || b.sent >= head.got ||
					s.ports[b.out].Out == nil || !s.ports[b.out].Out.CanSend(now) {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			for _, b := range in.branches {
				if b.done {
					continue
				}
				s.ports[b.out].Out.Send(now, flit.Ref{W: b.child, Idx: b.sent})
				b.sent++
				s.stats.FlitsOut++
				if b.sent == head.w.Len() {
					b.done = true
					s.release(b.out)
				}
			}
			in.movedAt = now
			s.advanceFreeing(i, now)
		}
	}
}

// advanceFreeing returns credits for flits every branch has forwarded. The
// floor is clamped to the flits actually received: a branch dropped by a
// fault has sent == Len() and must not free (or return credits for) flits
// still on their way in.
func (s *Switch) advanceFreeing(i int, now int64) {
	in := &s.in[i]
	m := in.queue[0].got
	for _, b := range in.branches {
		if b.sent < m {
			m = b.sent
		}
	}
	if m > in.minSent {
		delta := m - in.minSent
		in.minSent = m
		in.occupancy -= delta
		if in.occupancy < 0 {
			s.sim.Invariants().Violate(now, "ib-occupancy",
				"%s: input %d occupancy %d after freeing %d flits", s.Name(), i, in.occupancy, delta)
			in.occupancy = 0
		}
		s.ports[i].In.ReturnCredit(now, delta)
	}
}

// finishHeads pops head worms whose branches are all done.
func (s *Switch) finishHeads(now int64) {
	for w, word := range s.inBusy.Words() {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			in := &s.in[i]
			if in.mode != modeActive || len(in.branches) == 0 {
				continue
			}
			alldone := true
			for _, b := range in.branches {
				if !b.done {
					alldone = false
					break
				}
			}
			if !alldone {
				continue
			}
			head := &in.queue[0]
			if head.got < head.w.Len() {
				// Dropped branches outran arrival (fault path): keep freeing
				// flits as they trickle in and pop once the tail arrives.
				s.advanceFreeing(i, now)
				continue
			}
			s.advanceFreeing(i, now)
			if in.minSent != head.w.Len() {
				s.sim.Invariants().Violate(now, "ib-occupancy",
					"%s: popping head with %d/%d flits freed", s.Name(), in.minSent, head.w.Len())
				if delta := head.w.Len() - in.minSent; delta > 0 {
					in.occupancy -= delta
					if in.occupancy < 0 {
						in.occupancy = 0
					}
					s.ports[i].In.ReturnCredit(now, delta)
				}
			}
			in.queue = switches.PopFront(in.queue)
			// Every branch is done and released its output, so nothing
			// else refers to the records: keep them for the next head.
			in.branches = in.branches[:0]
			in.minSent = 0
			in.mode = modeIdle
			s.sim.Progress()
		}
	}
}

// arbitrate grants unbound outputs to requesting head branches, round-robin
// across inputs.
func (s *Switch) arbitrate(now int64) {
	for o := range s.out {
		st := &s.out[o]
		if st.bound != nil || s.reqBits[o] == 0 {
			continue
		}
		req := s.reqBits[o]
		picked := st.arb.Pick(func(i int) bool {
			return req&(1<<uint(i)) != 0
		})
		if picked < 0 {
			continue
		}
		in := &s.in[picked]
		for _, b := range in.branches {
			if b.out == o && !b.granted && !b.done {
				b.granted = true
				s.reqBits[o] &^= 1 << uint(picked)
				s.bind(o, b)
				s.stats.GrantWaitSum += now - b.reqAt
				if s.sim.Tracing() {
					s.sim.Emit(engine.TraceEvent{Kind: engine.TraceGrant, Actor: s.Name(),
						Msg: b.child.Msg.ID, Worm: b.child.ID,
						Detail: fmt.Sprintf("in=%d out=%d waited=%d", picked, o, now-b.reqAt)})
				}
				s.sim.Progress()
				break
			}
		}
	}
}

// stepInputs advances every busy input and clears the bits of inputs it
// leaves idle.
func (s *Switch) stepInputs(now int64) {
	for w, word := range s.inBusy.Words() {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			s.stepInput(i, now)
			if s.inputIdle(i) {
				s.inBusy.Remove(i)
			}
		}
	}
}

func (s *Switch) stepInput(i int, now int64) {
	in := &s.in[i]
	switch in.mode {
	case modeIdle:
		if len(in.queue) == 0 {
			return
		}
		if head := &in.queue[0]; head.w.Msg.Class == flit.ClassBarrier {
			// Barrier tokens are combined, never routed. The token
			// is one flit; it is fully present once queued.
			if head.got < head.w.Len() {
				return
			}
			w := head.w
			in.queue = switches.PopFront(in.queue)
			in.occupancy--
			s.ports[i].In.ReturnCredit(now, 1)
			s.handleToken(i, w)
			return
		}
		in.mode = modeHeader
		fallthrough
	case modeHeader:
		head := &in.queue[0]
		need := min(head.w.HeaderFlits(), head.w.Len())
		if head.got < need {
			return
		}
		in.decodeLeft = s.cfg.RouteDelay
		in.mode = modeDecode
		fallthrough
	case modeDecode:
		if in.decodeLeft > 0 {
			in.decodeLeft--
			s.sim.Progress()
			return
		}
		s.decode(i, now)
	case modeActive:
		// Branches are driven from serveOutputs/arbitrate; count
		// cycles the head could not move a single flit (whether
		// blocked on grants, downstream credits, or missing data).
		if in.movedAt != now {
			s.stats.HOLBlockedSum++
		}
	case modeSink:
		s.sinkHead(i, now)
	}
}

func (s *Switch) decode(i int, now int64) {
	in := &s.in[i]
	head := &in.queue[0]
	ascending := switches.Ascending(s.node, i)
	free := func(port int) bool { return s.out[port].bound == nil }
	// A nil dead predicate keeps healthy fabrics on the allocation-free
	// routing fast path; avoidance engages only once a link has failed.
	var dead func(port int) bool
	if s.sim.FailedLinks() > 0 && switches.AnyDeadOut(s.ports) {
		dead = func(port int) bool {
			out := s.ports[port].Out
			return out != nil && out.Dead()
		}
	}
	plans, dropped, err := switches.PlanBranches(s.router, s.node, head.w, ascending, free, dead,
		s.rng, s.ids, s.sim.Arena(), &s.dec, in.plans)
	in.plans = plans
	if err != nil {
		panic(fmt.Sprintf("%s: input %d: %v", s.Name(), i, err))
	}
	s.stats.Decodes++
	if s.sim.Tracing() {
		s.sim.Emit(engine.TraceEvent{Kind: engine.TraceDecode, Actor: s.Name(),
			Msg: head.w.Msg.ID, Worm: head.w.ID,
			Detail: fmt.Sprintf("in=%d branches=%d", i, len(plans))})
	}
	if !dropped.Empty() {
		s.reportDrop(now, head.w, dropped)
	}
	if len(plans) == 0 {
		// Every branch died: swallow the worm so upstream drains.
		in.mode = modeSink
		s.sinkHead(i, now)
		return
	}
	s.stats.Replications += int64(len(plans) - 1)
	brs := in.branches[:0]
	for _, p := range plans {
		var b *branch
		brs, b = switches.AppendRecord(brs)
		*b = branch{in: i, out: p.Port, child: p.Child, reqAt: now}
		s.reqBits[p.Port] |= 1 << uint(i)
	}
	in.branches = brs
	in.minSent = 0
	in.mode = modeActive
}

// sinkHead frees the head worm's flits as they arrive and pops it at the
// tail, for worms whose every branch died at decode.
func (s *Switch) sinkHead(i int, now int64) {
	in := &s.in[i]
	head := &in.queue[0]
	if head.got > in.minSent {
		delta := head.got - in.minSent
		in.minSent = head.got
		in.occupancy -= delta
		if in.occupancy < 0 {
			s.sim.Invariants().Violate(now, "ib-occupancy",
				"%s: input %d occupancy %d while sinking", s.Name(), i, in.occupancy)
			in.occupancy = 0
		}
		s.ports[i].In.ReturnCredit(now, delta)
	}
	if head.got == head.w.Len() {
		in.queue = switches.PopFront(in.queue)
		in.minSent = 0
		in.mode = modeIdle
		s.sim.Progress()
	}
}

// acceptArrivals takes at most one arrived flit per input wire, probing
// only wires with flits in flight and clearing the bits of wires it empties.
func (s *Switch) acceptArrivals(now int64) {
	for w, word := range s.wires.Words() {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			l := s.ports[i].In
			if r, ok := l.Receive(now); ok {
				in := &s.in[i]
				if in.occupancy >= s.cfg.BufFlits {
					panic(fmt.Sprintf("%s: input %d buffer overflow (credit protocol violated)", s.Name(), i))
				}
				if n := len(in.queue); n > 0 && in.queue[n-1].w == r.W {
					if r.Idx != in.queue[n-1].got {
						panic(fmt.Sprintf("%s: input %d non-contiguous flit %v", s.Name(), i, r))
					}
					in.queue[n-1].got++
				} else {
					if r.Idx != 0 {
						panic(fmt.Sprintf("%s: input %d new worm starting at flit %d", s.Name(), i, r.Idx))
					}
					in.queue = append(in.queue, wormRecv{w: r.W, got: 1})
				}
				in.occupancy++
				if in.occupancy > s.stats.MaxBufOccupancy {
					s.stats.MaxBufOccupancy = in.occupancy
				}
				s.inBusy.Add(i)
				s.stats.FlitsIn++
			}
			if l.InFlight() == 0 {
				s.wires.Remove(i)
			}
		}
	}
}
