// Package routing computes, for a worm arriving at a switch of a BMIN, the
// set of output branches it must take: upward toward the least common
// ancestor (LCA) stage and/or downward toward destination subtrees. Routing
// is up*/down*-conformant — a worm that has turned downward never ascends —
// which is the deadlock-free base routing the paper's multidestination worms
// conform to.
package routing

import (
	"fmt"

	"mdworm/internal/bitset"
	"mdworm/internal/engine"
	"mdworm/internal/flit"
	"mdworm/internal/topology"
)

// UpPolicy selects how a switch picks among its (equivalent) up ports when a
// worm must ascend.
type UpPolicy uint8

const (
	// UpHash picks deterministically by hashing the message id and source,
	// spreading independent messages across parents while keeping a given
	// message's path stable.
	UpHash UpPolicy = iota
	// UpRandom picks uniformly at random per hop.
	UpRandom
	// UpAdaptive picks the first currently-free up port, falling back to
	// the hash choice when none is free.
	UpAdaptive
)

// String names the policy.
func (p UpPolicy) String() string {
	switch p {
	case UpHash:
		return "hash"
	case UpRandom:
		return "random"
	case UpAdaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("uppolicy(%d)", uint8(p))
	}
}

// Router holds the routing configuration shared by all switches of a run.
type Router struct {
	Net *topology.Network
	// ReplicateOnUpPath, when true, lets an ascending multidestination
	// worm branch downward at every switch on its way to the LCA stage
	// (covering destinations as early as possible). When false the worm
	// ascends undivided to the LCA stage and replicates only on the way
	// down.
	ReplicateOnUpPath bool
	// Policy selects the up-port choice.
	Policy UpPolicy
	// OnDrop, when non-nil, is invoked by switches and NICs when an
	// injected fault forces a worm to abandon destinations: m is the
	// underlying message, ndests the number of op destinations lost
	// (software-multicast forwarding subtrees included), now the cycle.
	// The core simulator uses it to keep per-op accounting consistent so
	// degraded runs drain instead of hanging.
	OnDrop func(m *flit.Message, ndests int, now int64)
}

// Branch is one downward output the worm must take, with the destination
// subset the branch is responsible for.
type Branch struct {
	Port  int
	Dests bitset.Set
}

// Decision is the complete branching plan for a worm at a switch. DownPorts
// lists descending branches; UpDests is the residue that must continue
// ascending through one of UpCandidates (all equivalent by construction).
//
// A Decision is reusable scratch: RouteInto and RouteAvoid overwrite it in
// place, recycling the storage of its slices and sets, so a switch that
// keeps one Decision decodes without allocating. The sets it holds are only
// valid until the next decision written into it.
type Decision struct {
	Down         []Branch
	UpDests      bitset.Set // empty if the worm need not ascend
	UpCandidates []int      // valid up ports, when UpDests is non-empty

	within bitset.Set // scratch: the destinations inside this subtree
}

// NumBranches returns the total branch count once an up port is chosen.
func (d *Decision) NumBranches() int {
	n := len(d.Down)
	if !d.UpDests.Empty() {
		n++
	}
	return n
}

// reset empties the decision, keeping its storage.
func (d *Decision) reset() {
	d.Down = d.Down[:0]
	d.UpDests.SetCopy(bitset.Set{})
	d.UpCandidates = d.UpCandidates[:0]
}

// addDown appends a down branch covering within ∩ reach, reusing the sets
// of branches earlier decisions left in the slice's spare capacity.
func (d *Decision) addDown(port int, within, reach bitset.Set) {
	if len(d.Down) < cap(d.Down) {
		d.Down = d.Down[:len(d.Down)+1]
	} else {
		d.Down = append(d.Down, Branch{})
	}
	b := &d.Down[len(d.Down)-1]
	b.Port = port
	b.Dests.SetAnd(within, reach)
}

// Route computes the branching plan for a worm with destination set dests
// arriving at switch sw. Ascending reports whether the worm arrived from
// below (on a down port, or injected by a processor); descending worms must
// have all destinations within the switch's subtree.
func (r *Router) Route(sw *topology.Switch, dests bitset.Set, ascending bool) (Decision, error) {
	var dec Decision
	if err := r.RouteInto(&dec, sw, dests, ascending); err != nil {
		return Decision{}, err
	}
	return dec, nil
}

// RouteInto is Route writing the plan into dec (see Decision).
func (r *Router) RouteInto(dec *Decision, sw *topology.Switch, dests bitset.Set, ascending bool) error {
	dec.reset()
	if dests.Empty() {
		return fmt.Errorf("routing: empty destination set at switch %d", sw.ID)
	}

	// covered means no residue above this switch: dests ⊆ ReachAll. The
	// word-wise subset test avoids materializing within/residue sets on the
	// common paths (a descending worm is always covered; an ascending
	// unicast below its LCA never is).
	covered := dests.SubsetOf(sw.ReachAll())
	if !ascending && !covered {
		return fmt.Errorf("routing: descending worm at switch %d has unreachable destinations %v",
			sw.ID, dests.AndNot(sw.ReachAll()).Members())
	}
	within := dests
	if !covered {
		dec.within.SetAnd(dests, sw.ReachAll())
		within = dec.within
	}

	coverDown := ascending && (r.ReplicateOnUpPath || covered) || !ascending
	if coverDown {
		for _, pn := range sw.DownPorts() {
			if within.Intersects(sw.Ports[pn].Reach) {
				dec.addDown(pn, within, sw.Ports[pn].Reach)
			}
		}
	}

	switch {
	case covered:
		// Fully covered below; nothing ascends.
	case r.ReplicateOnUpPath:
		dec.UpDests.SetAndNot(dests, sw.ReachAll())
	default:
		// Ascend undivided; replication happens past the LCA stage.
		dec.UpDests.SetCopy(dests)
		dec.Down = dec.Down[:0]
	}

	if !dec.UpDests.Empty() {
		dec.UpCandidates = append(dec.UpCandidates, sw.UpPorts()...)
		if len(dec.UpCandidates) == 0 {
			return fmt.Errorf("routing: switch %d must ascend for %v but has no up ports",
				sw.ID, dec.UpDests.Members())
		}
	}
	return nil
}

// RouteAvoid computes the branching plan into dec like RouteInto while
// steering around dead output ports, as reported by the dead predicate (nil
// means fully healthy and behaves exactly like RouteInto). Destinations
// whose only path runs through a dead port are returned for the caller to
// account as dropped: on trees every inter-switch link is a bridge, so a
// dead down port partitions its whole subtree, and a worm that must ascend
// but has lost every up port covers what it can below and abandons the
// residue. The error cases are those of Route (malformed requests), never
// mere degradation.
func (r *Router) RouteAvoid(dec *Decision, sw *topology.Switch, dests bitset.Set, ascending bool, dead func(port int) bool) (bitset.Set, error) {
	if dead == nil {
		return bitset.Set{}, r.RouteInto(dec, sw, dests, ascending)
	}
	dec.reset()
	if dests.Empty() {
		return bitset.Set{}, fmt.Errorf("routing: empty destination set at switch %d", sw.ID)
	}

	covered := dests.SubsetOf(sw.ReachAll())
	if !ascending && !covered {
		return bitset.Set{}, fmt.Errorf("routing: descending worm at switch %d has unreachable destinations %v",
			sw.ID, dests.AndNot(sw.ReachAll()).Members())
	}
	within := dests
	var residue bitset.Set
	if !covered {
		within = dests.And(sw.ReachAll())
		residue = dests.AndNot(sw.ReachAll())
	}

	needUp := !covered
	if needUp && len(sw.UpPorts()) == 0 {
		return bitset.Set{}, fmt.Errorf("routing: switch %d must ascend for %v but has no up ports",
			sw.ID, residue.Members())
	}
	if needUp {
		for _, pn := range sw.UpPorts() {
			if !dead(pn) {
				dec.UpCandidates = append(dec.UpCandidates, pn)
			}
		}
	}
	upSevered := needUp && len(dec.UpCandidates) == 0

	dropped := bitset.New(r.Net.N)
	coverDown := !ascending || !needUp || r.ReplicateOnUpPath || upSevered
	if coverDown {
		for _, pn := range sw.DownPorts() {
			if !within.Intersects(sw.Ports[pn].Reach) {
				continue
			}
			if dead(pn) {
				dropped.OrIn(within.And(sw.Ports[pn].Reach))
				continue
			}
			dec.addDown(pn, within, sw.Ports[pn].Reach)
		}
	}

	switch {
	case !needUp:
		// Fully covered (or dropped) below; nothing ascends.
	case upSevered:
		// Every up port is dead: the residue is unreachable from here.
		dropped.OrIn(residue)
	case r.ReplicateOnUpPath:
		dec.UpDests.SetCopy(residue)
	default:
		// Ascend undivided; replication happens past the LCA stage.
		dec.UpDests.SetCopy(dests)
		dec.Down = dec.Down[:0]
	}
	if dec.UpDests.Empty() {
		dec.UpCandidates = dec.UpCandidates[:0]
	}
	return dropped, nil
}

// PickUp chooses the up port for a decision according to the router policy.
// free reports whether an output port is currently unbound (used by the
// adaptive policy); rng supplies randomness for UpRandom.
func (r *Router) PickUp(dec *Decision, msg *flit.Message, free func(port int) bool, rng *engine.RNG) int {
	cands := dec.UpCandidates
	if len(cands) == 0 {
		panic("routing: PickUp with no candidates")
	}
	switch r.Policy {
	case UpRandom:
		return cands[rng.Intn(len(cands))]
	case UpAdaptive:
		for _, c := range cands {
			if free(c) {
				return c
			}
		}
		fallthrough
	default:
		h := msg.ID*0x9e3779b97f4a7c15 + uint64(msg.Src)*0x85ebca6b
		h ^= h >> 33
		return cands[int(h%uint64(len(cands)))]
	}
}

// UnicastHops returns the switch path (ids) a unicast from src to dst takes
// under the hash up-port policy, for inspection and tests.
func (r *Router) UnicastHops(src, dst int, msg *flit.Message) ([]int, error) {
	if src == dst {
		return nil, fmt.Errorf("routing: src == dst == %d", src)
	}
	dests := bitset.New(r.Net.N)
	dests.Add(dst)
	swID, _ := r.Net.ProcAttach(src)
	var hops []int
	ascending := true
	for {
		sw := r.Net.Switches[swID]
		hops = append(hops, swID)
		if len(hops) > 4*r.Net.Stages {
			return nil, fmt.Errorf("routing: unicast %d->%d did not converge", src, dst)
		}
		dec, err := r.Route(sw, dests, ascending)
		if err != nil {
			return nil, err
		}
		if !dec.UpDests.Empty() {
			up := r.PickUp(&dec, msg, func(int) bool { return true }, engine.NewRNG(1))
			swID = sw.Ports[up].PeerSwitch
			continue
		}
		if len(dec.Down) != 1 {
			return nil, fmt.Errorf("routing: unicast at switch %d produced %d branches", sw.ID, len(dec.Down))
		}
		p := &sw.Ports[dec.Down[0].Port]
		if p.Proc >= 0 {
			if p.Proc != dst {
				return nil, fmt.Errorf("routing: unicast %d->%d delivered to %d", src, dst, p.Proc)
			}
			return hops, nil
		}
		swID = p.PeerSwitch
		ascending = false
	}
}
