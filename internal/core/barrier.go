package core

import (
	"fmt"
	"math/bits"

	"mdworm/internal/collective"
	"mdworm/internal/flit"
)

// BarrierScheme selects how a barrier synchronization is realized. The
// paper's follow-up work (Sivaram/Stunkel/Panda, IPPS '97) studies hardware
// barrier support; here the gather phase is a binomial combining tree of
// short unicasts in both variants, and the schemes differ in the release:
// one hardware multidestination worm versus a binomial software broadcast.
type BarrierScheme uint8

const (
	// BarrierSoftware uses a binomial gather followed by a binomial
	// software broadcast, all unicasts.
	BarrierSoftware BarrierScheme = iota
	// BarrierHardwareRelease uses the binomial gather followed by a single
	// hardware multidestination release worm from the root.
	BarrierHardwareRelease
	// BarrierHardwareCombining performs the whole barrier in the switches:
	// every host injects one single-flit token; switches on the designated
	// spanning tree combine tokens and the root broadcasts release tokens
	// back down — no NIC gather tree at all. Both switch architectures
	// implement the combining logic.
	BarrierHardwareCombining
)

// String names the scheme.
func (b BarrierScheme) String() string {
	switch b {
	case BarrierSoftware:
		return "sw-barrier"
	case BarrierHardwareRelease:
		return "hw-release-barrier"
	case BarrierHardwareCombining:
		return "hw-combining-barrier"
	default:
		return fmt.Sprintf("barrier(%d)", uint8(b))
	}
}

// barrierParent returns the binomial combining-tree parent of rank r
// (root rank 0): clear the lowest set bit.
func barrierParent(r int) int { return r &^ (r & -r) }

// barrierChildren returns the children of rank r in a tree over n ranks:
// r | 2^k for every k below r's lowest set bit (every k for the root), the
// standard binomial combining tree.
func barrierChildren(r, n int) []int {
	upper := bits.Len(uint(n - 1))
	if r != 0 {
		upper = bits.TrailingZeros(uint(r))
	}
	var out []int
	for k := 0; k < upper; k++ {
		c := r | 1<<uint(k)
		if c < n {
			out = append(out, c)
		}
	}
	return out
}

// RunBarrier executes one full-system barrier entered by every node at the
// current cycle and returns the cycle count until the last node receives the
// release. The network must be otherwise idle (traffic generation off);
// budget bounds the simulation.
func (s *Simulator) RunBarrier(scheme BarrierScheme, budget int64) (int64, error) {
	s.mustLive()
	if s.genOn {
		return 0, fmt.Errorf("core: RunBarrier requires an idle network")
	}
	if scheme == BarrierHardwareCombining {
		return s.runCombiningBarrier(budget)
	}
	n := s.net.N
	start := s.sim.Now
	fac := &s.fac
	const arrivalPayload = 1 // a minimal "I arrived" token
	const releasePayload = 1

	// Gather bookkeeping: how many child arrivals each rank still awaits,
	// and when a rank becomes ready to notify its parent.
	waiting := make([]int, n)
	for r := 0; r < n; r++ {
		waiting[r] = len(barrierChildren(r, n))
	}
	readyAt := make([]int64, n)
	sent := make([]bool, n)
	for r := 0; r < n; r++ {
		readyAt[r] = start // leaves are ready immediately
	}

	// Each arrival is its own single-destination op; route deliveries to
	// the gather bookkeeping through the delivery hook.
	arrivalFor := make(map[*flit.Op]int) // op -> receiving rank
	var releaseOp *flit.Op
	prevHook := s.deliverHook
	defer func() { s.deliverHook = prevHook }()
	s.deliverHook = func(m *flit.Message, proc int, now int64) {
		op := m.Op
		if op == nil || !op.Done() {
			return
		}
		if rank, ok := arrivalFor[op]; ok {
			waiting[rank]--
			if waiting[rank] == 0 {
				readyAt[rank] = now + int64(s.cfg.NIC.RecvOverhead)
			}
		}
	}

	sendArrival := func(rank int, now int64) error {
		parent := barrierParent(rank)
		op := flit.NewOp(s.ids.Next(), flit.ClassUnicast, rank, 1, now)
		op.Phases = 1
		m := fac.NewMessage(rank, []int{parent}, flit.ClassUnicast, arrivalPayload, op, nil, now)
		s.nics[rank].Submit(m)
		s.outstanding++
		arrivalFor[op] = parent
		return nil
	}

	released := func() bool { return releaseOp != nil && releaseOp.Done() }
	for !released() {
		if s.sim.Now-start > budget {
			return 0, fmt.Errorf("core: barrier incomplete after %d cycles", budget)
		}
		now := s.sim.Now
		// Ranks whose subtree has arrived notify their parent.
		for r := 1; r < n; r++ {
			if !sent[r] && waiting[r] == 0 && now >= readyAt[r] {
				sent[r] = true
				if err := sendArrival(r, now); err != nil {
					return 0, err
				}
			}
		}
		// The root releases everyone once its subtree has arrived.
		if releaseOp == nil && waiting[0] == 0 && now >= readyAt[0] {
			dests := make([]int, 0, n-1)
			for d := 1; d < n; d++ {
				dests = append(dests, d)
			}
			var err error
			switch scheme {
			case BarrierHardwareRelease:
				releaseOp, err = s.startOpScheme(s.cfg.Scheme, 0, dests, true, releasePayload)
			case BarrierSoftware:
				releaseOp, err = s.startOpScheme(collective.SoftwareBinomial, 0, dests, true, releasePayload)
			default:
				err = fmt.Errorf("core: unknown barrier scheme %d", scheme)
			}
			if err != nil {
				return 0, err
			}
		}
		s.sim.Step()
		if err := s.sim.CheckWatchdog(); err != nil {
			return 0, err
		}
	}
	return releaseOp.LastArrival - start, nil
}

// runCombiningBarrier drives the in-switch combining barrier: one token per
// host, combined by the switches, released by the spanning-tree root.
func (s *Simulator) runCombiningBarrier(budget int64) (int64, error) {
	n := s.net.N
	start := s.sim.Now
	// One op delivered at every host by the release broadcast.
	op := flit.NewOp(s.ids.Next(), flit.ClassBarrier, 0, n, start)
	op.Phases = 1
	s.outstanding++
	for proc := 0; proc < n; proc++ {
		m := &flit.Message{
			ID:          s.ids.Next(),
			Src:         proc,
			Dests:       []int{proc}, // tokens are consumed by switches, never routed
			Class:       flit.ClassBarrier,
			HeaderFlits: 1,
			Created:     start,
			Op:          op,
		}
		s.nics[proc].Submit(m)
	}
	done, err := s.sim.RunUntil(op.Done, budget)
	if err != nil {
		return 0, err
	}
	if !done {
		return 0, fmt.Errorf("core: combining barrier incomplete after %d cycles", budget)
	}
	return op.LastArrival - start, nil
}
