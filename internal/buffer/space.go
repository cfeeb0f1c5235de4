package buffer

import (
	"fmt"

	"dynlb/internal/sim"
)

// Space is a private working space: a block of frames reserved for one
// (sub)query, e.g. the hash table of a PPHJ join process. Acquisition goes
// through the manager's FCFS memory queue; a lower-priority space may later
// lose frames above its minimum to higher-priority demand via the steal
// handler.
type Space struct {
	m       *Manager
	name    string
	prio    Priority
	min     int
	pages   int
	onSteal func(need int) int
	closed  bool
}

// NewSpace registers an empty working space. min is the smallest reservation
// the owner can operate with (p pages for a PPHJ join with p partitions).
func (m *Manager) NewSpace(name string, prio Priority, minPages int) *Space {
	if minPages < 0 {
		panic(fmt.Sprintf("buffer: space %s min %d", name, minPages))
	}
	s := &Space{m: m, name: name, prio: prio, min: minPages}
	m.spaces = append(m.spaces, s)
	return s
}

// Name returns the space name.
func (s *Space) Name() string { return s.name }

// Pages returns the frames currently reserved.
func (s *Space) Pages() int { return s.pages }

// Min returns the minimal reservation.
func (s *Space) Min() int { return s.min }

// SetStealHandler installs fn, called (in the stealer's context) when a
// higher-priority requester needs frames. fn must release frames via
// Release and return how many it released; it must not block.
func (s *Space) SetStealHandler(fn func(need int) int) { s.onSteal = fn }

// Acquire blocks in the FCFS memory queue until at least Min frames are
// available, then reserves up to desired frames (whatever is available at
// grant time, at least Min). It returns the number granted.
//
// Acquire models the paper's join start rule: "a join query is only started
// at a node if the minimal space requirements of p pages are available;
// otherwise the join is forced to wait in a memory queue (FCFS)".
func (s *Space) Acquire(p *sim.Proc, desired int) int {
	if s.closed {
		panic(fmt.Sprintf("buffer: acquire on closed space %s", s.name))
	}
	if desired < s.min {
		desired = s.min
	}
	m := s.m
	if len(m.memQ) == 0 && len(m.frameQ) == 0 && m.Avail() >= s.min {
		grant := min(desired, m.Avail())
		m.reclaim(grant)
		m.account()
		m.reserved += grant
		s.pages += grant
		return grant
	}
	m.waits++
	w := &spaceWaiter{p: p, s: s, min: s.min, desired: desired}
	m.memQ = append(m.memQ, w)
	// Let the queue make progress immediately: the liveness breaker in
	// drain may reclaim above-minimum frames from running spaces for the
	// queue head (the grant, if any, arrives via Unpark).
	m.drain()
	p.Park()
	return w.granted
}

// AcquireBestEffort reserves up to n frames without blocking and without
// entering the FCFS memory queue, stealing from lower-priority spaces when
// the pool is short. It returns the number granted (possibly 0). This is
// the high-priority path: OLTP private workspaces take their frames ahead
// of queued join reservations (the paper's OLTP memory priority).
func (s *Space) AcquireBestEffort(n int) int {
	if s.closed {
		panic(fmt.Sprintf("buffer: acquire on closed space %s", s.name))
	}
	m := s.m
	if n <= 0 {
		return 0
	}
	if m.Avail() < n {
		m.stealFrames(n-m.Avail(), s.prio)
	}
	grant := min(n, m.Avail())
	if grant <= 0 {
		return 0
	}
	m.reclaim(grant)
	m.account()
	m.reserved += grant
	s.pages += grant
	return grant
}

// TryGrow attempts to reserve up to n additional frames without blocking
// and without overtaking queued requests. It returns the number granted.
// PPHJ uses this to bring disk-resident partitions back when memory frees
// up ("if more memory becomes available for join processing...").
func (s *Space) TryGrow(n int) int {
	m := s.m
	if s.closed || n <= 0 || len(m.memQ) > 0 || len(m.frameQ) > 0 {
		return 0
	}
	grant := min(n, m.Avail())
	if grant <= 0 {
		return 0
	}
	m.reclaim(grant)
	m.account()
	m.reserved += grant
	s.pages += grant
	return grant
}

// Release returns n reserved frames to the pool and wakes waiters.
func (s *Space) Release(n int) {
	if n < 0 || n > s.pages {
		panic(fmt.Sprintf("buffer: space %s release %d of %d", s.name, n, s.pages))
	}
	if n == 0 {
		return
	}
	m := s.m
	m.account()
	s.pages -= n
	m.reserved -= n
	m.drain()
}

// Close releases all frames and deregisters the space.
func (s *Space) Close() {
	if s.closed {
		return
	}
	s.Release(s.pages)
	s.closed = true
	for i, sp := range s.m.spaces {
		if sp == s {
			s.m.spaces = append(s.m.spaces[:i], s.m.spaces[i+1:]...)
			break
		}
	}
}
