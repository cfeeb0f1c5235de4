// Package lock implements the concurrency-control substrate of the
// simulation: distributed strict two-phase locking with long read and write
// locks (one lock table per PE) and a central deadlock detection scheme that
// periodically builds the global waits-for graph and aborts a victim, as
// described in Section 4 of Rahm & Marek (VLDB '95).
package lock

import (
	"errors"
	"fmt"
	"sort"

	"dynlb/internal/sim"
)

// Mode is a lock mode.
type Mode int

// Lock modes.
const (
	Shared Mode = iota
	Exclusive
)

func (m Mode) String() string {
	if m == Shared {
		return "S"
	}
	return "X"
}

// TxnID identifies a transaction globally. IDs are assigned in start order,
// so a larger ID means a younger transaction (the deadlock victim choice).
type TxnID int64

// Key identifies a lockable object (a tuple or a partition).
type Key struct {
	Space int64
	Item  int64
}

// ErrDeadlock is returned from Lock when the requester was chosen as the
// deadlock victim; the caller must release all its locks and abort.
var ErrDeadlock = errors.New("lock: aborted as deadlock victim")

// Table is the lock table of one PE.
type Table struct {
	k       *sim.Kernel
	name    string
	entries map[Key]*entry
	held    map[TxnID]map[Key]Mode

	locks, waits, deadlocks int64
}

type entry struct {
	holders map[TxnID]Mode
	queue   []*request
}

type request struct {
	p       *sim.Proc
	txn     TxnID
	mode    Mode
	upgrade bool
	granted bool
	aborted bool
}

// NewTable creates an empty lock table.
func NewTable(k *sim.Kernel, name string) *Table {
	return &Table{
		k: k, name: name,
		entries: make(map[Key]*entry),
		held:    make(map[TxnID]map[Key]Mode),
	}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Locks returns the number of granted lock requests.
func (t *Table) Locks() int64 { return t.locks }

// Waits returns the number of requests that had to block.
func (t *Table) Waits() int64 { return t.waits }

// Deadlocks returns the number of aborts issued by deadlock resolution.
func (t *Table) Deadlocks() int64 { return t.deadlocks }

// compatible reports whether mode m can be granted alongside the current
// holders (ignoring holder self, for upgrades).
func (e *entry) compatible(txn TxnID, m Mode) bool {
	for h, hm := range e.holders {
		if h == txn {
			continue
		}
		if m == Exclusive || hm == Exclusive {
			return false
		}
	}
	return true
}

// Lock acquires key in the given mode for txn, blocking behind incompatible
// holders and earlier waiters (FCFS, except that lock upgrades go to the
// front). Re-requesting a held mode is a no-op; requesting Exclusive while
// holding Shared performs an upgrade. Returns ErrDeadlock if aborted.
func (t *Table) Lock(p *sim.Proc, txn TxnID, key Key, m Mode) error {
	if t.TryLock(txn, key, m) {
		return nil
	}
	e := t.entries[key]
	if _, held := e.holders[txn]; held {
		// Only an S -> X upgrade can fail while holding.
		return t.wait(p, e, &request{p: p, txn: txn, mode: Exclusive, upgrade: true}, key)
	}
	return t.wait(p, e, &request{p: p, txn: txn, mode: m}, key)
}

// TryLock grants key to txn in mode m if Lock would grant it without
// waiting, and reports whether it did. It never blocks, so run-to-completion
// light processes can take locks that are known to be free. On false
// nothing changed except that the key's (empty) entry may exist.
func (t *Table) TryLock(txn TxnID, key Key, m Mode) bool {
	e := t.entries[key]
	if e == nil {
		e = &entry{holders: make(map[TxnID]Mode)}
		t.entries[key] = e
	}
	if held, ok := e.holders[txn]; ok {
		if held == Exclusive || m == Shared {
			return true // already sufficient
		}
		// Upgrade S -> X.
		if !e.compatible(txn, Exclusive) || t.upgradeQueued(e, txn) {
			return false
		}
	} else if len(e.queue) > 0 || !e.compatible(txn, m) {
		return false
	}
	e.holders[txn] = m
	t.setHeld(txn, key, m)
	t.locks++
	return true
}

func (t *Table) upgradeQueued(e *entry, txn TxnID) bool {
	for _, r := range e.queue {
		if r.upgrade && r.txn != txn {
			return true
		}
	}
	return false
}

func (t *Table) wait(p *sim.Proc, e *entry, r *request, key Key) error {
	t.waits++
	if r.upgrade {
		// Upgrades wait in front of ordinary requests to avoid starving
		// behind requests they are incompatible with anyway.
		i := 0
		for i < len(e.queue) && e.queue[i].upgrade {
			i++
		}
		e.queue = append(e.queue, nil)
		copy(e.queue[i+1:], e.queue[i:])
		e.queue[i] = r
	} else {
		e.queue = append(e.queue, r)
	}
	p.Park()
	if r.aborted {
		return ErrDeadlock
	}
	if !r.granted {
		panic(fmt.Sprintf("lock: %s spurious wakeup txn %d", t.name, r.txn))
	}
	t.setHeld(r.txn, key, r.mode)
	t.locks++
	return nil
}

func (t *Table) setHeld(txn TxnID, key Key, m Mode) {
	hm := t.held[txn]
	if hm == nil {
		hm = make(map[Key]Mode)
		t.held[txn] = hm
	}
	hm[key] = m
}

// Unlock releases txn's lock on key and grants compatible waiters.
func (t *Table) Unlock(txn TxnID, key Key) {
	e := t.entries[key]
	if e == nil {
		panic(fmt.Sprintf("lock: %s unlock of unheld key %v", t.name, key))
	}
	if _, ok := e.holders[txn]; !ok {
		panic(fmt.Sprintf("lock: %s txn %d unlock of unheld key %v", t.name, txn, key))
	}
	delete(e.holders, txn)
	if hm := t.held[txn]; hm != nil {
		delete(hm, key)
		if len(hm) == 0 {
			delete(t.held, txn)
		}
	}
	t.grant(e, key)
}

// ReleaseAll releases every lock txn holds in this table (commit/abort under
// strict 2PL) and removes it from all wait queues.
func (t *Table) ReleaseAll(txn TxnID) {
	keys := make([]Key, 0, len(t.held[txn]))
	for key := range t.held[txn] {
		keys = append(keys, key)
	}
	// Deterministic release order.
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Space != keys[j].Space {
			return keys[i].Space < keys[j].Space
		}
		return keys[i].Item < keys[j].Item
	})
	for _, key := range keys {
		t.Unlock(txn, key)
	}
}

func (t *Table) grant(e *entry, key Key) {
	for len(e.queue) > 0 {
		r := e.queue[0]
		if !e.compatible(r.txn, r.mode) {
			return
		}
		e.queue = e.queue[1:]
		e.holders[r.txn] = r.mode
		r.granted = true
		r.p.Unpark()
	}
}

// WaitsFor appends to edges the (waiter, holder) pairs of this table's
// current wait relationships; the central detector combines all tables.
func (t *Table) WaitsFor(edges map[TxnID][]TxnID) {
	for _, e := range t.entries {
		for _, r := range e.queue {
			for h := range e.holders {
				if h != r.txn {
					edges[r.txn] = append(edges[r.txn], h)
				}
			}
			// Waiters also wait for incompatible earlier queue entries.
			for _, q := range e.queue {
				if q == r {
					break
				}
				if q.txn != r.txn && (r.mode == Exclusive || q.mode == Exclusive) {
					edges[r.txn] = append(edges[r.txn], q.txn)
				}
			}
		}
	}
}

// Abort removes txn's queued requests (waking them with ErrDeadlock) and
// releases its held locks. Used by deadlock resolution.
func (t *Table) Abort(txn TxnID) {
	// Collect and sort the affected keys before touching anything: the
	// Unparks and grants below assign event sequence numbers, so waking in
	// entry-map iteration order would make every run with a deadlock abort
	// nondeterministic (the same reason ReleaseAll sorts).
	keys := make([]Key, 0, len(t.held[txn]))
	for key, e := range t.entries {
		if _, ok := e.holders[txn]; ok {
			keys = append(keys, key)
			continue
		}
		for _, r := range e.queue {
			if r.txn == txn {
				keys = append(keys, key)
				break
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Space != keys[j].Space {
			return keys[i].Space < keys[j].Space
		}
		return keys[i].Item < keys[j].Item
	})
	aborted := false
	for _, key := range keys {
		e := t.entries[key]
		for i := 0; i < len(e.queue); {
			r := e.queue[i]
			if r.txn == txn {
				e.queue = append(e.queue[:i], e.queue[i+1:]...)
				r.aborted = true
				aborted = true
				r.p.Unpark()
				continue
			}
			i++
		}
		if _, ok := e.holders[txn]; ok {
			delete(e.holders, txn)
			if hm := t.held[txn]; hm != nil {
				delete(hm, key)
			}
			t.grant(e, key)
		}
	}
	delete(t.held, txn)
	if aborted {
		t.deadlocks++
	}
}
