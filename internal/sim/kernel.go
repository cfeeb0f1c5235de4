package sim

import "fmt"

// event is a calendar entry: at time t, resume process p (the hot path:
// Wait wake-ups, unparks) or run fn in kernel context (the general path:
// At/After). Exactly one of p and fn is set. fn must never block; blocking
// work belongs in processes. Events are pooled by the kernel, so neither
// payload allocates in steady state.
//
// A run-fn event with srv set is a Server.UseFn step, carried by the event
// itself so a light process's hold needs no closure: a grant starts the
// queued hold of d on srv, otherwise the hold on srv ends (Release) before
// fn runs.
type event struct {
	t     Time
	seq   int64
	fn    func() // run-fn payload; nil for resume-proc events
	p     *Proc  // resume-proc payload
	srv   *Server
	d     Duration
	grant bool
}

// maxTime is the largest representable simulated time.
const maxTime = Time(1<<63 - 1)

// Kernel owns the simulated clock and the event calendar and drives all
// processes. A Kernel and everything attached to it must be used from a
// single OS-level goroutine (the one that calls Run); process coroutines are
// resumed by the kernel itself and never run concurrently with it.
//
// Scheduling structure: events in the future live in the calendar queue
// (calQueue, O(1) amortized); events at the current instant — unparks and
// mailbox wake-ups — bypass it through the nowQ FIFO. The global order is
// still exactly (time, seq): nowQ entries carry sequence numbers and the
// dispatch loop lets same-time calendar events with lower sequence numbers
// (scheduled earlier, from a past instant) fire first.
//
// Dispatch is cooperative ("the ball"): exactly one context at a time — the
// root Run loop or one process — pops and dispatches events. A blocking
// process keeps dispatching in its own context until its own resume event
// comes up (continuation fast path, zero switches) or another process's turn
// arrives (a handoff: it yields and the root loop resumes that process with
// one coroutine switch each way). See Proc.block and switchTo.
type Kernel struct {
	now     Time
	seq     int64
	cq      calQueue
	nowQ    []*event
	nowHead int
	pool    []*event
	handoff *Proc // process a yielding process named to run next
	running bool
	inline  bool // continuation fast path enabled (default true)
	pooling bool // spawn reuses parked worker coroutines (default true)
	horizon Time // until of the active Run; valid while running
	blocked int  // processes parked on a resource or mailbox
	procSeq int64

	procs []*Proc   // live processes (spawned, not yet finished), registry order
	freeW []*worker // parked pooled worker coroutines awaiting reuse

	dispatched   int64 // events dispatched since kernel creation
	inlineWakes  int64 // blocks resolved in-context, without a switch
	handoffs     int64 // switches into a process
	goroutines   int   // worker coroutines alive (parked, running, or blocked)
	spawnReuses  int64 // spawns served by a pooled worker instead of a new coroutine
	lightSpawns  int64 // run-to-completion processes started via SpawnFn
	batchedGets  int64 // Chan.GetAll drains
	batchedItems int64 // messages delivered through GetAll drains
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel {
	k := &Kernel{inline: true, pooling: true}
	k.cq.shift = calShift
	return k
}

// SetSpawnPooling toggles worker-coroutine pooling. With it disabled every
// Spawn starts a fresh coroutine that ends when the process returns (the
// pre-pool behavior). Dispatch order — and therefore every simulation result
// — is identical either way; the switch exists for benchmarks and
// equivalence tests. It must not be called while Run is active.
func (k *Kernel) SetSpawnPooling(enabled bool) {
	if k.running {
		panic("sim: SetSpawnPooling during Run")
	}
	k.pooling = enabled
}

// SetInlineDispatch toggles the continuation fast path. With it disabled
// every block yields to the root Run loop, which dispatches the next event
// and resumes the process when its turn comes (the pre-fast-path behavior).
// Dispatch order — and therefore every simulation result — is identical
// either way; the switch exists for benchmarks and determinism tests. It must not be called while Run is active.
func (k *Kernel) SetInlineDispatch(enabled bool) {
	if k.running {
		panic("sim: SetInlineDispatch during Run")
	}
	k.inline = enabled
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Live reports the number of processes that have been spawned and have not
// yet returned.
func (k *Kernel) Live() int { return len(k.procs) }

// Blocked reports the number of processes currently parked waiting for a
// resource, store or mailbox (not those sleeping on the calendar).
func (k *Kernel) Blocked() int { return k.blocked }

// KernelStats is a snapshot of scheduling counters: how events are being
// dispatched, what the process model is costing, and how the calendar queue
// is coping with the workload's event horizon.
//
// Spawns/SpawnReuses/LiveGoroutines characterize the process pool: in steady
// state SpawnReuses tracks Spawns (every spawn reuses a parked worker) and
// LiveGoroutines stays O(peak live processes) — not O(total spawned).
// LightSpawns counts run-to-completion processes (SpawnFn) that needed no
// coroutine at all; BatchedGets/BatchedItems measure mailbox-drain leverage
// (items per wake-up). OverflowLen/OverflowPeak/OverflowPushes/Migrations
// diagnose a wheel-width mismatch; WheelShift/WidthResizes record how the
// self-tuning calendar responded (see calQueue.maybeWiden).
type KernelStats struct {
	Dispatched  int64 // events dispatched since kernel creation
	InlineWakes int64 // blocks resolved in-context (continuation fast path, no switch)
	Handoffs    int64 // coroutine switches into a process

	Spawns         int64 // processes ever spawned (Spawn/SpawnAt/SpawnArg)
	SpawnReuses    int64 // spawns served by a parked pooled worker (no coroutine birth)
	LiveGoroutines int   // worker coroutines alive: parked in the pool, running, or blocked
	LightSpawns    int64 // run-to-completion processes started via SpawnFn
	BatchedGets    int64 // Chan.GetAll drains
	BatchedItems   int64 // messages delivered through GetAll drains

	WheelLen       int   // events currently in the calendar wheel
	WheelShift     int   // current bucket-width exponent (bucket width = 1<<shift ns)
	WidthResizes   int64 // times the self-tuning wheel doubled its bucket width
	OverflowLen    int   // events currently in the overflow heap
	OverflowPeak   int   // high-water overflow-heap residency
	OverflowPushes int64 // enqueues that landed beyond the wheel horizon
	Migrations     int64 // events migrated overflow → wheel as the cursor advanced
}

// Stats returns the kernel's scheduling counters.
func (k *Kernel) Stats() KernelStats {
	return KernelStats{
		Dispatched:     k.dispatched,
		InlineWakes:    k.inlineWakes,
		Handoffs:       k.handoffs,
		Spawns:         k.procSeq,
		SpawnReuses:    k.spawnReuses,
		LiveGoroutines: k.goroutines,
		LightSpawns:    k.lightSpawns,
		BatchedGets:    k.batchedGets,
		BatchedItems:   k.batchedItems,
		WheelLen:       k.cq.wheelN,
		WheelShift:     int(k.cq.shift),
		WidthResizes:   k.cq.resizes,
		OverflowLen:    len(k.cq.overflow),
		OverflowPeak:   k.cq.overflowPeak,
		OverflowPushes: k.cq.overflowPushes,
		Migrations:     k.cq.migrations,
	}
}

// newEvent returns a pooled event stamped with the next sequence number.
func (k *Kernel) newEvent(t Time) *event {
	var e *event
	if n := len(k.pool); n > 0 {
		e = k.pool[n-1]
		k.pool[n-1] = nil
		k.pool = k.pool[:n-1]
	} else {
		e = &event{}
	}
	k.seq++
	e.t = t
	e.seq = k.seq
	return e
}

func (k *Kernel) freeEvent(e *event) {
	e.fn = nil
	e.p = nil
	e.srv = nil
	e.grant = false
	k.pool = append(k.pool, e)
}

// schedule files e under the (time, seq) order: same-instant events go to
// the nowQ FIFO, future events to the calendar queue.
func (k *Kernel) schedule(e *event) {
	if e.t == k.now {
		k.nowQ = append(k.nowQ, e)
		return
	}
	k.cq.enqueue(e)
}

// At schedules fn to run in kernel context at absolute time t.
// It panics if t is in the simulated past.
//
// "Kernel context" is wherever dispatch is happening: with the
// continuation fast path (the default) fn may execute inside a blocked
// process's coroutine rather than the root Run loop. A panic escaping fn
// unwinds that process (its defers run) and then surfaces from Run on the
// goroutine that called it, as does a panic in a process body, so it can
// be recovered around Run. After such a panic the kernel must not run
// again; call Shutdown to retire its processes and coroutines.
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: event scheduled in the past: %v < now %v", t, k.now))
	}
	e := k.newEvent(t)
	e.fn = fn
	k.schedule(e)
}

// atProc schedules p to be resumed at absolute time t (closure-free).
func (k *Kernel) atProc(t Time, p *Proc) {
	if t < k.now {
		panic(fmt.Sprintf("sim: event scheduled in the past: %v < now %v", t, k.now))
	}
	e := k.newEvent(t)
	e.p = p
	k.schedule(e)
}

// After schedules fn to run in kernel context d from now.
func (k *Kernel) After(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	k.At(k.now+d, fn)
}

// next extracts the next event in (time, seq) order with time <= until,
// advancing the clock; it returns nil when no such event exists.
func (k *Kernel) next(until Time) *event {
	if k.nowHead < len(k.nowQ) {
		if k.now > until {
			return nil
		}
		// A same-time calendar event was necessarily scheduled from an
		// earlier instant, so its sequence number is lower than every
		// nowQ entry's: it goes first.
		if t, ok := k.cq.peekTime(); ok && t == k.now {
			k.dispatched++
			return k.cq.pop(k.now)
		}
		e := k.nowQ[k.nowHead]
		k.nowQ[k.nowHead] = nil
		k.nowHead++
		if k.nowHead == len(k.nowQ) {
			k.nowQ = k.nowQ[:0]
			k.nowHead = 0
		}
		k.dispatched++
		return e
	}
	e := k.cq.pop(until)
	if e != nil {
		k.now = e.t
		k.dispatched++
	}
	return e
}

// switchTo resumes p and, while the process that yields back names a
// handoff, resumes that process next. Each resumed process runs —
// possibly dispatching further events in its own context — until it needs
// another process's turn, drains the horizon or finishes. A panic escaping
// a process surfaces here, on the goroutine that called Run.
func (k *Kernel) switchTo(p *Proc) {
	for p != nil {
		if p.done {
			panic(fmt.Sprintf("sim: resuming finished process %q", p.name))
		}
		k.handoffs++
		p.w.next()
		p, k.handoff = k.handoff, nil
	}
}

// dispatch recycles e and performs its action from the root loop: a process
// handoff for resume-proc events, a call for run-fn events.
func (k *Kernel) dispatch(e *event) {
	if p := e.p; p != nil {
		k.freeEvent(e)
		k.switchTo(p)
		return
	}
	k.runFn(e)
}

// runFn recycles a run-fn event and performs it in the current context: a
// UseFn grant starts its hold, a UseFn hold end releases its server, and
// then (or at once, for plain events) fn runs.
func (k *Kernel) runFn(e *event) {
	fn, srv, d, grant := e.fn, e.srv, e.d, e.grant
	k.freeEvent(e)
	switch {
	case srv == nil:
		fn()
	case grant:
		k.blocked--
		srv.holdFn(d, fn)
	default:
		srv.Release()
		fn()
	}
}

// Run executes events in timestamp order until the calendar is empty or the
// clock would pass until. It returns the simulated time at which it stopped.
// Events exactly at until are executed. Run may be called repeatedly with
// increasing horizons.
func (k *Kernel) Run(until Time) Time {
	k.run(until)
	if k.now < until {
		k.now = until
	}
	return k.now
}

// RunAll executes events until the calendar is empty, leaving the clock at
// the time of the last event executed.
func (k *Kernel) RunAll() Time {
	k.run(maxTime)
	return k.now
}

// run is the root dispatch loop shared by Run and RunAll.
func (k *Kernel) run(until Time) {
	if k.running {
		panic("sim: Kernel.Run re-entered")
	}
	k.running = true
	k.horizon = until
	defer func() { k.running = false }()
	for e := k.next(until); e != nil; e = k.next(until) {
		k.dispatch(e)
	}
}

// Pending reports the number of scheduled events (calendar and same-instant
// queue).
func (k *Kernel) Pending() int {
	return k.cq.len() + len(k.nowQ) - k.nowHead
}

// SpawnFn starts a run-to-completion "light" process: fn is scheduled as an
// ordinary event at the current time and runs in kernel context — no
// coroutine, no switch, no Proc allocation. fn must never block
// (there is no process identity to suspend); timed holds are expressed
// through the continuation primitives (Server.UseFn, netw.SendFn), which
// schedule their follow-up events at exactly the (time, seq) positions the
// equivalent Proc-based body would have, so converting a non-blocking Spawn
// call site to SpawnFn leaves every simulation result bit-identical.
func (k *Kernel) SpawnFn(fn func()) {
	k.lightSpawns++
	e := k.newEvent(k.now)
	e.fn = fn
	k.schedule(e)
}

// Shutdown terminates every live process and dismisses the worker pool,
// releasing all coroutines and the memory their stacks and captured state
// pin. Call it when a simulation is complete (after the final Run and after
// results have been read, or after recovering a panic out of Run): without
// it, a long sweep of independent simulations would accumulate one pool of
// parked coroutines per kernel.
//
// Each live process is killed by stopping its coroutine: the pending yield
// at its block point returns false and the process panics a sentinel, so
// the unwind runs its defers (admission tokens, buffer space and locks are
// returned normally) and is recovered at the spawn boundary. Processes
// whose start event never fired, and one whose body already panicked out
// of Run, are retired without running anything. Pending calendar events
// are left in place — they will simply never be dispatched. An in-flight
// light process (SpawnFn) has no coroutine to unwind: it is dropped with
// its pending events, and whatever it holds (a buffer space, a lock) is
// not returned. The kernel must not be used for further simulation after
// Shutdown.
func (k *Kernel) Shutdown() {
	if k.running {
		panic("sim: Shutdown during Run")
	}
	for len(k.procs) > 0 {
		p := k.procs[len(k.procs)-1]
		p.w.stop()
		if !p.done {
			k.finishProc(p)
		}
		k.goroutines--
	}
	k.ReleaseWorkers()
}

// ReleaseWorkers dismisses the parked worker-coroutine pool (stopping a
// parked worker ends its coroutine). Shutdown calls it; it is exported for
// callers that never spawn blocking processes but still want to drop the
// pool between simulations.
func (k *Kernel) ReleaseWorkers() {
	if k.running {
		panic("sim: ReleaseWorkers during Run")
	}
	for i, w := range k.freeW {
		w.stop()
		k.freeW[i] = nil
	}
	k.goroutines -= len(k.freeW)
	k.freeW = k.freeW[:0]
}
