package sim

import (
	"fmt"
	"iter"
)

// Proc is the handle a simulated process uses to interact with the kernel.
// A process is an ordinary function running on a kernel-owned coroutine
// (iter.Pull); every blocking operation (Wait, Server.Use, Store.Get,
// Chan.Get, ...) suspends the process and transfers dispatch to the kernel,
// which resumes it when the corresponding event fires. Exactly one process
// runs at any instant, and switching between processes is a runtime
// coroutine switch: no run queue, no channel, no futex.
//
// Suspension does not necessarily suspend the coroutine: with the
// continuation fast path (Kernel.SetInlineDispatch, on by default) a
// blocking process keeps dispatching events in its own context — run-fn
// events execute inline, its own resume event simply returns control, and
// only another process's resume costs a switch (the process yields to the
// root Run loop, which resumes the other process at once). An uncontended
// timed hold — Wait after an immediate Acquire, Server.Use on a free
// station — therefore runs entirely switch-free when no other process has
// an intervening turn.
//
// Coroutines are pooled (Kernel.SetSpawnPooling, on by default): a process
// that returns parks its worker on the kernel's free list instead of
// exiting, and the next Spawn reuses it — identity fields (ID, Name, Arg)
// are reset on reuse, so spawning is allocation-free in steady state and the
// coroutine count is bounded by the peak number of live processes, not by
// the total number ever spawned.
type Proc struct {
	k       *Kernel
	id      int64
	name    string
	done    bool
	arg     int64
	w       *worker // the coroutine running this process
	liveIdx int     // index in Kernel.procs while live
}

// worker is a process coroutine plus the Proc whose identity it lends to
// successive spawns. fn holds the next body between assignment (spawn) and
// execution (first resume). Only the root Run loop and Shutdown call next
// and stop; inside the coroutine, yield suspends it and reports false once
// stop has been called.
type worker struct {
	proc  Proc
	fn    func(*Proc)
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// killSentinel is the panic payload a stopped yield raises in a blocked
// process to unwind its coroutine; runBody recovers exactly this type and
// re-panics everything else.
type killSentinel struct{}

// runBody executes a process body, absorbing the Shutdown kill sentinel so
// the caller can run the finish protocol either way. Its deferred recover
// also means a killed body's own defers run — resources held across the
// kill (admission tokens, buffer spaces) are returned like on any return.
func runBody(p *Proc, fn func(*Proc)) (killed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killSentinel); !ok {
				panic(r)
			}
			killed = true
		}
	}()
	fn(p)
	return false
}

// newWorker creates a process coroutine; it starts at its first resume. The
// loop runs one process body per resume cycle. A finishing body retires
// its process and then either parks the worker on the kernel free list
// until a spawn reuses it or, with pooling off, ends the coroutine. A
// stopped coroutine (Shutdown, ReleaseWorkers) ends without running
// another body, and whoever stopped it owns the coroutine counter.
func (k *Kernel) newWorker() *worker {
	w := &worker{}
	w.proc.k = k
	w.proc.w = w
	k.goroutines++
	w.next, w.stop = iter.Pull(func(yield func(struct{}) bool) {
		w.yield = yield
		for {
			fn := w.fn
			w.fn = nil
			killed := runBody(&w.proc, fn)
			k.finishProc(&w.proc)
			if killed {
				return
			}
			if !k.pooling {
				k.goroutines--
				return
			}
			k.freeW = append(k.freeW, w)
			if !yield(struct{}{}) {
				return
			}
		}
	})
	return w
}

// finishProc retires a returning (or killed) process: marks it done and
// removes it from the live registry.
func (k *Kernel) finishProc(p *Proc) {
	p.done = true
	last := len(k.procs) - 1
	q := k.procs[last]
	k.procs[p.liveIdx] = q
	q.liveIdx = p.liveIdx
	k.procs[last] = nil
	k.procs = k.procs[:last]
}

// Spawn creates a process named name running fn and schedules its start at
// the current simulated time. It returns immediately; fn runs when the
// kernel reaches the start event.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	return k.spawn(k.now, name, 0, fn)
}

// SpawnAt creates a process whose execution starts at absolute time t.
func (k *Kernel) SpawnAt(t Time, name string, fn func(p *Proc)) *Proc {
	return k.spawn(t, name, 0, fn)
}

// SpawnArg is Spawn carrying a small scalar argument the process reads via
// Proc.Arg. Arrival loops use it to reuse one hoisted closure for every
// spawn — the per-iteration value rides the Proc instead of forcing a fresh
// capture per spawned process.
func (k *Kernel) SpawnArg(name string, arg int64, fn func(p *Proc)) *Proc {
	return k.spawn(k.now, name, arg, fn)
}

func (k *Kernel) spawn(t Time, name string, arg int64, fn func(p *Proc)) *Proc {
	k.procSeq++
	var w *worker
	if n := len(k.freeW); k.pooling && n > 0 {
		w = k.freeW[n-1]
		k.freeW[n-1] = nil
		k.freeW = k.freeW[:n-1]
		k.spawnReuses++
	} else {
		w = k.newWorker()
	}
	w.fn = fn
	p := &w.proc
	p.done = false
	p.id = k.procSeq
	p.name = name
	p.arg = arg
	p.liveIdx = len(k.procs)
	k.procs = append(k.procs, p)
	k.atProc(t, p)
	return p
}

// block suspends the calling process until its next resume event — a Wait
// wake-up scheduled by the caller, or an Unpark/grant from a resource queue
// — is dispatched. The caller must already have arranged for that event (or
// for an eventual unpark).
//
// Fast path: the blocking process becomes the dispatcher. It pops events in
// exactly the (time, seq) order the root loop would, runs fn events inline,
// and returns the moment its own resume event comes up — zero switches. A
// resume event for another process is recorded as the kernel's handoff and
// the process yields: the root loop's switchTo resumes the named process at
// once. Draining the horizon yields with no handoff, so Run returns. With
// the fast path off (parked mode) every block simply yields and the root
// loop dispatches. Both modes dispatch the identical event sequence, so
// simulation results are bit-identical with the fast path on or off.
func (p *Proc) block() {
	k := p.k
	for k.inline {
		e := k.next(k.horizon)
		if e == nil {
			break
		}
		if q := e.p; q != nil {
			k.freeEvent(e)
			if q == p {
				// Our own wake: continue in-context, no switch at all.
				k.inlineWakes++
				return
			}
			k.handoff = q
			break
		}
		k.runFn(e)
	}
	// Sleep until a dispatcher resumes us; a stopped yield is Shutdown
	// killing the process at this block point.
	if !p.w.yield(struct{}{}) {
		panic(killSentinel{})
	}
}

// unpark schedules p to resume at the current simulated time, bypassing the
// calendar through the kernel's same-instant FIFO. It must be called from
// kernel context (an event function or another process's turn).
func (p *Proc) unpark() {
	p.k.atProc(p.k.now, p)
}

// Park suspends the calling process until another component calls Unpark.
// It is the extension point for custom blocking primitives outside package
// sim (lock tables, buffer memory queues, ...). The caller must have
// registered itself somewhere an Unpark will find it.
func (p *Proc) Park() {
	p.k.blocked++
	p.block()
	p.k.blocked--
}

// Unpark schedules a process parked via Park to resume at the current
// simulated time. Calling it for a process that is not parked is a bug the
// kernel will surface as a double-resume panic.
func (p *Proc) Unpark() { p.unpark() }

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.k.now }

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// ID returns the unique process id (assigned in spawn order).
func (p *Proc) ID() int64 { return p.id }

// Arg returns the scalar argument passed to SpawnArg (zero for processes
// started by Spawn/SpawnAt).
func (p *Proc) Arg() int64 { return p.arg }

// Wait suspends the process for d of simulated time. This is the simulator's
// dominant primitive (every timed hold is a Wait); on the continuation fast
// path an undisturbed Wait costs one calendar insert and one extract, with
// no coroutine switch.
func (p *Proc) Wait(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: process %q waiting negative duration %v", p.name, d))
	}
	if d == 0 {
		return
	}
	p.k.atProc(p.k.now+d, p)
	p.block()
}

// WaitUntil suspends the process until absolute time t (no-op if t <= now).
func (p *Proc) WaitUntil(t Time) {
	if t <= p.k.now {
		return
	}
	p.Wait(t - p.k.now)
}
