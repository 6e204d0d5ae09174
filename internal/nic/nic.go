// Package nic models the host network interface: message injection with a
// software send overhead, flit-rate ejection with delivery notification, and
// the forwarding engine that software multicast schemes rely on (a received
// message that carries a ForwardStep is re-sent to the receiver's subtree
// after a software receive overhead).
package nic

import (
	"fmt"

	"mdworm/internal/collective"
	"mdworm/internal/engine"
	"mdworm/internal/flit"
)

// Config holds the host-side timing parameters.
type Config struct {
	// SendOverhead is the software cost, in cycles, charged before each
	// message begins injection (the communication start-up time t_s).
	SendOverhead int
	// RecvOverhead is the software cost, in cycles, charged before a
	// received software-multicast message can be forwarded onward.
	RecvOverhead int
	// RecvFIFOFlits is the ejection buffer capacity granted as credits to
	// the final switch; the NIC drains it at one flit per cycle.
	RecvFIFOFlits int
}

// DefaultConfig returns paper-plausible host overheads.
func DefaultConfig() Config {
	return Config{SendOverhead: 64, RecvOverhead: 64, RecvFIFOFlits: 16}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.SendOverhead < 0 || c.RecvOverhead < 0 {
		return fmt.Errorf("nic: negative overhead")
	}
	if c.RecvFIFOFlits < 1 {
		return fmt.Errorf("nic: receive FIFO must hold >= 1 flit")
	}
	return nil
}

// DeliveredFunc is invoked when the tail flit of a message reaches its
// destination NIC.
type DeliveredFunc func(m *flit.Message, at *NIC, now int64)

// Stats counts per-NIC activity.
type Stats struct {
	MessagesSent      int64
	MessagesDelivered int64
	MessagesDropped   int64 // messages abandoned because the injection link failed
	FlitsInjected     int64
	FlitsEjected      int64
	ForwardedMsgs     int64
	SendQueueMax      int
	OverheadCycles    int64
}

type fwdTask struct {
	msg     *flit.Message
	readyAt int64
}

// NIC is one host interface, attached to a stage-0 switch port pair.
type NIC struct {
	proc    int
	n       int // system size, for destination bitsets
	inject  *engine.Link
	eject   *engine.Link
	cfg     Config
	ids     *engine.IDGen
	sim     *engine.Simulation
	factory collective.MessageFactory
	onDelv  DeliveredFunc

	sendQ         []*flit.Message
	overheadLeft  int
	overheadSpent bool // overhead for the head message already paid
	curWorm       *flit.Worm
	curIdx        int

	recvWorm *flit.Worm
	recvGot  int

	tasks []fwdTask

	stallUntil int64 // NICStall fault: no injection strictly before this cycle
	onDrop     func(m *flit.Message, ndests int, now int64)

	stats Stats
}

// New creates a NIC for processor proc in a system of n processors.
// inject carries flits toward the switch; eject carries flits from it.
func New(cfg Config, proc, n int, inject, eject *engine.Link,
	ids *engine.IDGen, sim *engine.Simulation,
	factory collective.MessageFactory, onDelivered DeliveredFunc) *NIC {

	return &NIC{
		proc:    proc,
		n:       n,
		inject:  inject,
		eject:   eject,
		cfg:     cfg,
		ids:     ids,
		sim:     sim,
		factory: factory,
		onDelv:  onDelivered,
	}
}

// Proc returns the processor id this NIC serves.
func (nc *NIC) Proc() int { return nc.proc }

// StallUntil pauses injection strictly before the given cycle (the NICStall
// fault); overlapping windows keep the latest deadline. Ejection and
// software forwarding timers continue.
func (nc *NIC) StallUntil(cycle int64) {
	if cycle > nc.stallUntil {
		nc.stallUntil = cycle
	}
}

// SetOnDrop installs the callback invoked when the NIC abandons pending
// messages because its injection link failed; ndests counts the op
// destinations lost, forwarding subtrees included.
func (nc *NIC) SetOnDrop(fn func(m *flit.Message, ndests int, now int64)) { nc.onDrop = fn }

// Name identifies the NIC in diagnostics.
func (nc *NIC) Name() string { return fmt.Sprintf("nic%d", nc.proc) }

// Stats returns a snapshot of the NIC counters.
func (nc *NIC) Stats() Stats { return nc.stats }

// QueueLen returns the current injection queue length (pending messages).
func (nc *NIC) QueueLen() int {
	q := len(nc.sendQ)
	if nc.curWorm != nil {
		q++
	}
	return q
}

// Submit enqueues messages for injection, in order. It re-arms the NIC in
// the scheduler: a submit is out-of-band stimulation the link fabric cannot
// see, so an idle (skipped) NIC must be woken explicitly.
func (nc *NIC) Submit(msgs ...*flit.Message) {
	nc.sendQ = append(nc.sendQ, msgs...)
	if len(nc.sendQ) > nc.stats.SendQueueMax {
		nc.stats.SendQueueMax = len(nc.sendQ)
	}
	nc.sim.Wake(nc)
}

// Quiesced reports whether the NIC holds no pending or in-flight work.
func (nc *NIC) Quiesced() bool {
	return len(nc.sendQ) == 0 && nc.curWorm == nil &&
		nc.recvWorm == nil && len(nc.tasks) == 0
}

// Step advances the NIC one cycle: eject one flit, run forwarding timers,
// and inject one flit.
func (nc *NIC) Step(now int64) {
	nc.stepEject(now)
	nc.stepForward(now)
	nc.stepInject(now)
}

func (nc *NIC) stepEject(now int64) {
	if nc.eject == nil {
		return
	}
	r, ok := nc.eject.Receive(now)
	if !ok {
		return
	}
	// The NIC consumes at link rate; the buffer slot frees immediately.
	nc.eject.ReturnCredit(now, 1)
	nc.stats.FlitsEjected++
	if nc.recvWorm == nil {
		if r.Idx != 0 {
			panic(fmt.Sprintf("%s: mid-worm flit %v with no active reception", nc.Name(), r))
		}
		nc.recvWorm = r.W
		nc.recvGot = 0
	}
	if r.W != nc.recvWorm || r.Idx != nc.recvGot {
		panic(fmt.Sprintf("%s: interleaved or out-of-order flit %v", nc.Name(), r))
	}
	nc.recvGot++
	if !r.Tail() {
		return
	}
	// Complete message received.
	w := nc.recvWorm
	nc.recvWorm = nil
	nc.recvGot = 0
	if !w.Dests.Has(nc.proc) || w.Dests.Count() != 1 {
		panic(fmt.Sprintf("%s: received worm %d with destination set %v", nc.Name(), w.ID, w.Dests))
	}
	m := w.Msg
	nc.stats.MessagesDelivered++
	if nc.sim.Tracing() {
		var opID uint64
		if m.Op != nil {
			opID = m.Op.ID
		}
		nc.sim.Emit(engine.TraceEvent{Kind: engine.TraceDeliver, Actor: nc.Name(),
			Msg: m.ID, Worm: w.ID, Op: opID})
	}
	if m.Forward != nil && len(m.Forward.Subtree) > 0 {
		nc.tasks = append(nc.tasks, fwdTask{msg: m, readyAt: now + int64(nc.cfg.RecvOverhead)})
	}
	if nc.onDelv != nil {
		nc.onDelv(m, nc, now)
	}
}

func (nc *NIC) stepForward(now int64) {
	if len(nc.tasks) == 0 {
		return
	}
	kept := nc.tasks[:0]
	for _, t := range nc.tasks {
		if t.readyAt > now {
			nc.sim.Progress() // timers are forward progress
			kept = append(kept, t)
			continue
		}
		msgs := collective.ForwardPlan(nc.factory, nc.proc, t.msg.Forward.Subtree,
			t.msg.PayloadFlits, t.msg.Op, now)
		nc.Submit(msgs...)
		nc.stats.ForwardedMsgs += int64(len(msgs))
		if nc.sim.Tracing() {
			nc.sim.Emit(engine.TraceEvent{Kind: engine.TraceForward, Actor: nc.Name(),
				Msg: t.msg.ID, Op: t.msg.Op.ID,
				Detail: fmt.Sprintf("subtree=%v sends=%d", t.msg.Forward.Subtree, len(msgs))})
		}
		nc.sim.Progress()
	}
	nc.tasks = kept
}

func (nc *NIC) stepInject(now int64) {
	if now < nc.stallUntil {
		return
	}
	if nc.inject != nil && nc.inject.Dead() && !nc.inject.MidWorm() {
		// Injection is permanently severed at a worm boundary: nothing can
		// leave this NIC again. Account every pending message as dropped so
		// its op completes instead of hanging the drain.
		nc.dropPending(now)
		return
	}
	if nc.curWorm == nil {
		if len(nc.sendQ) == 0 {
			return
		}
		if !nc.overheadSpent {
			if nc.overheadLeft == 0 {
				nc.overheadLeft = nc.cfg.SendOverhead
			}
			if nc.overheadLeft > 0 {
				nc.overheadLeft--
				nc.stats.OverheadCycles++
				nc.sim.Progress()
				if nc.overheadLeft > 0 {
					return
				}
			}
			nc.overheadSpent = true
		}
		m := nc.sendQ[0]
		nc.sendQ = nc.sendQ[1:]
		nc.overheadSpent = false
		arena := nc.sim.Arena()
		dests := arena.NewSet(nc.n)
		for _, d := range m.Dests {
			dests.Add(d)
		}
		nc.curWorm = arena.Worm()
		*nc.curWorm = flit.Worm{
			ID:      nc.ids.Next(),
			Msg:     m,
			Dests:   dests,
			GoingUp: true,
		}
		nc.curIdx = 0
		m.InjectedAt = now
		if m.Op != nil {
			m.Op.MessagesSent++
		}
		nc.stats.MessagesSent++
		if nc.sim.Tracing() {
			var opID uint64
			if m.Op != nil {
				opID = m.Op.ID
			}
			nc.sim.Emit(engine.TraceEvent{Kind: engine.TraceInject, Actor: nc.Name(),
				Msg: m.ID, Worm: nc.curWorm.ID, Op: opID,
				Detail: fmt.Sprintf("dests=%v len=%d", m.Dests, m.Len())})
		}
	}
	if nc.inject == nil || !nc.inject.CanSend(now) {
		return
	}
	nc.inject.Send(now, flit.Ref{W: nc.curWorm, Idx: nc.curIdx})
	nc.curIdx++
	nc.stats.FlitsInjected++
	if nc.curIdx == nc.curWorm.Len() {
		nc.curWorm = nil
		nc.curIdx = 0
	}
}

// dropPending abandons the un-started current worm (if any) and the whole
// send queue after the injection link failed.
func (nc *NIC) dropPending(now int64) {
	if nc.curWorm != nil {
		// The head flit was never sent (a mid-worm transfer is allowed to
		// finish before reaching here), so the worm can vanish cleanly.
		nc.dropMessage(nc.curWorm.Msg, now)
		nc.curWorm = nil
		nc.curIdx = 0
	}
	for _, m := range nc.sendQ {
		nc.dropMessage(m, now)
	}
	if len(nc.sendQ) > 0 {
		nc.sendQ = nc.sendQ[:0]
	}
	nc.overheadSpent = false
	nc.overheadLeft = 0
}

func (nc *NIC) dropMessage(m *flit.Message, now int64) {
	n := len(m.Dests)
	if m.Forward != nil {
		n += len(m.Forward.Subtree)
	}
	nc.stats.MessagesDropped++
	if nc.sim.Tracing() {
		var opID uint64
		if m.Op != nil {
			opID = m.Op.ID
		}
		nc.sim.Emit(engine.TraceEvent{Kind: engine.TraceDrop, Actor: nc.Name(),
			Msg: m.ID, Op: opID, Detail: fmt.Sprintf("dests=%v cost=%d", m.Dests, n)})
	}
	if nc.onDrop != nil {
		nc.onDrop(m, n, now)
	}
	nc.sim.Progress()
}
