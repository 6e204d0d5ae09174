package engine

import (
	"fmt"

	"mdworm/internal/flit"
)

// Link is a unidirectional channel between an output port and an input port
// with a fixed latency in cycles and a bandwidth of one flit per cycle.
// Flow control is credit-based: the sender holds one credit per free slot of
// the receiver's buffer, consumes a credit per flit sent, and regains
// credits (after the same link latency) when the receiver frees buffer
// space. With this discipline the receiver never overflows, so arriving
// flits can always be accepted.
type Link struct {
	name    string
	latency int64

	inflight ring[flit.Ref] // flits on the wire, in send order
	creditsQ ring[int]      // credit returns on the reverse wire
	credits  int            // sender-visible credits (after draining creditsQ)

	lastSend int64 // cycle of most recent Send, for the 1 flit/cycle limit
	lastTake int64 // cycle of most recent TakeArrived

	carried  int64       // flits delivered over the lifetime of the link
	activity *int64      // simulation activity counter
	sim      *Simulation // owning kernel; nil for standalone links
	recv     int32       // receiving component index, -1 if undeclared
	markWord *uint64     // receiver's wire bitmap word Send marks; nil if unbound
	markBit  uint64

	capacity   int   // initial credit count, the overflow ceiling
	failed     bool  // LinkDown fault: refuse new worms at the next boundary
	midWorm    bool  // a worm's head has crossed without its tail
	stuckUntil int64 // PortStuck fault: no sends strictly before this cycle

	inv        *Invariants // checker sink; nil for standalone links
	expectWorm *flit.Worm  // conservation: worm whose next flit must follow
	expectIdx  int
}

type timed[T any] struct {
	v  T
	at int64
}

// ring is an index-based FIFO over a power-of-two backing array. Pops
// advance a head index and pushes reuse freed slots, so a link in steady
// state allocates nothing. A ring of up to inlineSlots entries — both rings
// of a latency-1 wire — lives in small, inside the Link itself; a ring may
// therefore never be copied once buf points at it.
type ring[T any] struct {
	buf   []timed[T]
	head  int
	n     int
	small [inlineSlots]timed[T]
}

// inlineSlots is the ring capacity a latency-1 wire needs (latency+1).
const inlineSlots = 2

// reset empties the ring and sizes it for at most want entries: inline up
// to inlineSlots, else a power-of-two heap array.
func (r *ring[T]) reset(want int) {
	r.head, r.n = 0, 0
	if want <= inlineSlots {
		r.small = [inlineSlots]timed[T]{}
		r.buf = r.small[:]
		return
	}
	size := 2 * inlineSlots
	for size < want {
		size *= 2
	}
	r.buf = make([]timed[T], size)
}

func (r *ring[T]) len() int { return r.n }

// front returns the oldest element; the ring must be non-empty.
func (r *ring[T]) front() *timed[T] { return &r.buf[r.head] }

// back returns the newest element; the ring must be non-empty.
func (r *ring[T]) back() *timed[T] { return r.at(r.n - 1) }

// at returns the i-th queued element (0 = oldest) without consuming it.
func (r *ring[T]) at(i int) *timed[T] {
	return &r.buf[(r.head+i)&(len(r.buf)-1)]
}

func (r *ring[T]) push(v timed[T]) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

func (r *ring[T]) pop() timed[T] {
	e := r.buf[r.head]
	var zero timed[T]
	r.buf[r.head] = zero // drop references so retired worms can be collected
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return e
}

// grow doubles the ring. The link's own bound (latency+1 entries, see
// init) never reaches it; it serves restored checkpoints written before
// credit folding, whose credit queues may be longer, and ad-hoc harnesses
// whose receivers leave arrived flits on the wire.
func (r *ring[T]) grow() {
	size := 2 * len(r.buf)
	if size == 0 {
		size = inlineSlots
	}
	buf := make([]timed[T], size)
	for i := 0; i < r.n; i++ {
		buf[i] = *r.at(i)
	}
	r.buf = buf
	r.head = 0
}

// NewLink creates a link with the given latency (>= 1) and initial credit
// count (the capacity of the receiver's buffer).
func NewLink(name string, latency, credits int) *Link {
	l := new(Link)
	l.init(name, latency, credits)
	l.activity = new(int64)
	return l
}

// init sets up a zero (or recycled) Link in place. Both queues are sized by
// the wire, not by the credit count: a sender puts at most one flit per
// cycle on the wire and every receiver takes one arrived flit per cycle,
// so at most latency+1 flits are ever in flight; and ReturnCredit folds
// same-cycle and already-due returns, so the credit queue holds at most
// one due entry plus one per cycle of the latency window.
func (l *Link) init(name string, latency, credits int) {
	if latency < 1 {
		panic("engine: link latency must be >= 1")
	}
	if credits < 1 {
		panic("engine: link credits must be >= 1")
	}
	*l = Link{
		name:     name,
		latency:  int64(latency),
		credits:  credits,
		capacity: credits,
		lastSend: -1,
		lastTake: -1,
		recv:     -1,
	}
	l.inflight.reset(latency + 1)
	l.creditsQ.reset(latency + 1)
}

// MaxQueued returns the larger of the link's in-flight flit count and its
// credit-queue length, for checking the latency+1 bound.
func (l *Link) MaxQueued() int { return max(l.inflight.len(), l.creditsQ.len()) }

// Latency returns the wire latency in cycles.
func (l *Link) Latency() int { return int(l.latency) }

// Name returns the link's diagnostic name.
func (l *Link) Name() string { return l.name }

// Carried returns the number of flits delivered so far.
func (l *Link) Carried() int64 { return l.carried }

// InFlight returns the number of flits currently on the wire.
func (l *Link) InFlight() int { return l.inflight.len() }

// drainCredits adds the credit returns due by now to the sender's count.
// Only a drain that adds credits can overflow (restore rejects a count
// above capacity), so the overflow check runs only then.
func (l *Link) drainCredits(now int64) {
	if l.creditsQ.len() == 0 || l.creditsQ.front().at > now {
		return
	}
	for l.creditsQ.len() > 0 && l.creditsQ.front().at <= now {
		l.credits += l.creditsQ.pop().v
	}
	if l.credits > l.capacity && l.inv != nil {
		l.inv.Violate(now, "credit-overflow",
			"link %s: %d credits exceed capacity %d", l.name, l.credits, l.capacity)
		l.credits = l.capacity
	}
}

// CanSend reports whether the sender may push a flit this cycle: the link is
// not stuck or (at a worm boundary) failed, a credit is available, and the
// per-cycle bandwidth is unused. A failed link still grants the remaining
// flits of a worm whose head already crossed — failure lands at worm
// boundaries so flit conservation holds.
func (l *Link) CanSend(now int64) bool {
	l.drainCredits(now)
	return l.sendable(now)
}

// sendable is CanSend's answer from the credit count as it stands, without
// draining due returns.
func (l *Link) sendable(now int64) bool {
	if now < l.stuckUntil {
		return false
	}
	if l.failed && !l.midWorm {
		return false
	}
	return l.credits > 0 && l.lastSend < now
}

// Credits returns the sender-visible credit count.
func (l *Link) Credits(now int64) int {
	l.drainCredits(now)
	return l.credits
}

// Send pushes one flit onto the wire; it arrives at now+latency. It panics
// if called without CanSend — senders must check first. After the caller's
// CanSend no credit return is due, so Send only rechecks the drained state
// and falls back to the full CanSend when that check fails.
func (l *Link) Send(now int64, r flit.Ref) {
	if !l.sendable(now) && !l.CanSend(now) {
		panic(fmt.Sprintf("engine: link %s: Send without credit/bandwidth at cycle %d", l.name, now))
	}
	l.checkOrder(now, r)
	l.credits--
	l.lastSend = now
	l.midWorm = !r.Tail()
	if l.inflight.len() == 0 && l.sim != nil {
		l.sim.busyLinks++
	}
	l.inflight.push(timed[flit.Ref]{v: r, at: now + l.latency})
	*l.activity++
	if l.markWord != nil {
		*l.markWord |= l.markBit
	}
	if l.recv >= 0 {
		l.sim.noteSend(l.recv, now+l.latency)
	}
}

// checkOrder enforces per-link flit conservation: a worm's flits cross a
// link contiguously (no interleaving with another worm) and in index order,
// head first, tail last. Violations are reported and the tracking state
// resynchronizes to the offending flit.
func (l *Link) checkOrder(now int64, r flit.Ref) {
	if l.inv != nil {
		switch {
		case l.expectWorm == nil:
			if r.Idx != 0 {
				l.inv.Violate(now, "flit-order",
					"link %s: worm %d starts mid-worm at flit %d", l.name, r.W.ID, r.Idx)
			}
		case r.W != l.expectWorm:
			l.inv.Violate(now, "flit-interleave",
				"link %s: worm %d preempts unfinished worm %d", l.name, r.W.ID, l.expectWorm.ID)
		case r.Idx != l.expectIdx:
			l.inv.Violate(now, "flit-order",
				"link %s: worm %d flit %d where flit %d was due", l.name, r.W.ID, r.Idx, l.expectIdx)
		}
	}
	if r.Tail() {
		l.expectWorm = nil
	} else {
		l.expectWorm = r.W
		l.expectIdx = r.Idx + 1
	}
}

// Arrived returns the oldest flit whose arrival time has passed, without
// consuming it. The second result is false if nothing has arrived or the
// receiver already took a flit this cycle. Receivers that take whatever
// arrived use Receive; Arrived is the peek for those that must look first.
func (l *Link) Arrived(now int64) (flit.Ref, bool) {
	if l.lastTake >= now || l.inflight.len() == 0 || l.inflight.front().at > now {
		return flit.Ref{}, false
	}
	return l.inflight.front().v, true
}

// TakeArrived consumes the flit returned by Arrived. The receiver is
// responsible for storing it (credit discipline guarantees space) and for
// returning a credit once the space frees.
func (l *Link) TakeArrived(now int64) flit.Ref {
	r, ok := l.Receive(now)
	if !ok {
		panic(fmt.Sprintf("engine: link %s: TakeArrived with nothing arrived at cycle %d", l.name, now))
	}
	return r
}

// Receive consumes and returns the flit Arrived would report, if any, in
// one probe. The receiver's duties are TakeArrived's.
func (l *Link) Receive(now int64) (flit.Ref, bool) {
	r, ok := l.Arrived(now)
	if !ok {
		return r, false
	}
	l.inflight.pop()
	if l.inflight.len() == 0 && l.sim != nil {
		l.sim.busyLinks--
	}
	l.lastTake = now
	l.carried++
	return r, true
}

// BindWireMark makes every Send set bit `bit` of *word. A receiver keeps a
// bitmap of its input wires with flits in flight this way and probes only
// those for arrivals; it clears a wire's bit itself once the wire is empty.
func (l *Link) BindWireMark(word *uint64, bit int) {
	l.markWord = word
	l.markBit = 1 << uint(bit)
}

// ReturnCredit notifies the sender (after the link latency) that n slots of
// the receiver's buffer have been freed. Returns due in the same cycle share
// one entry, and returns already due (at <= now) fold into the oldest one:
// every later drain adds all due entries together, so the sender sees the
// same credit count, and the queue stays within latency+1 entries however
// long the sender goes without draining.
func (l *Link) ReturnCredit(now int64, n int) {
	if n <= 0 {
		panic("engine: ReturnCredit with non-positive n")
	}
	at := now + l.latency
	q := &l.creditsQ
	if q.n > 0 && q.back().at == at {
		q.back().v += n
		return
	}
	for q.n >= 2 && q.at(1).at <= now {
		due := q.pop().v
		q.front().v += due
	}
	q.push(timed[int]{v: n, at: at})
}

// Quiesced reports whether no flits are on the wire.
func (l *Link) Quiesced() bool { return l.inflight.len() == 0 }

func (l *Link) bindActivity(counter *int64) { l.activity = counter }

// Capacity returns the receiver buffer size the link was created with.
func (l *Link) Capacity() int { return l.capacity }

// Fail marks the link permanently dead at worm granularity (LinkDown fault):
// a worm mid-transfer finishes, after which CanSend refuses new worms.
// In-flight flits are never dropped. The owning simulation counts each
// failed link once (see Simulation.FailedLinks); a link no simulation owns
// is not counted.
func (l *Link) Fail() {
	if !l.failed && l.sim != nil {
		l.sim.failedLinks++
	}
	l.failed = true
}

// Dead reports whether Fail was applied. Senders and routing use it to drop
// or reroute new worms at a clean boundary instead of waiting forever.
func (l *Link) Dead() bool { return l.failed }

// MidWorm reports whether a worm's head has crossed without its tail, i.e.
// a transfer is committed and must be allowed to finish even on a dead link.
func (l *Link) MidWorm() bool { return l.midWorm }

// StickUntil blocks new sends strictly before the given cycle (PortStuck
// fault); overlapping windows keep the latest deadline.
func (l *Link) StickUntil(cycle int64) {
	if cycle > l.stuckUntil {
		l.stuckUntil = cycle
	}
}
