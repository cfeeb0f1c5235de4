// Package disk models the I/O subsystem of one processing element: a set of
// disk servers behind a controller with an LRU disk cache and sequential
// prefetching, following Section 4 of Rahm & Marek (VLDB '95):
//
//   - I/O duration = controller service time (per page) + disk access time +
//     transmission time (per page);
//   - prefetching reads several succeeding pages per physical access at
//     base-access + per-page delay (15 ms + 1 ms/page by default) and caches
//     them, so a 4-page prefetch takes 19 ms;
//   - the controller holds an LRU page cache (200 pages by default).
//
// CPU overhead per I/O (3000 instructions) is charged by the engine at the
// host CPU, not here.
package disk

import (
	"fmt"

	"dynlb/internal/sim"
)

// PageID identifies one page of one storage space (a relation fragment,
// index, log, or temporary partition file).
type PageID struct {
	Space int64
	Page  int64
}

// Params are the timing and cache parameters of the subsystem (paper
// defaults in Defaults).
type Params struct {
	CtrlPerPage     sim.Duration // controller service time per page
	TransferPerPage sim.Duration // transmission time per page
	AvgAccess       sim.Duration // base disk access time per physical I/O
	PrefetchPerPage sim.Duration // additional access delay per prefetched page
	CacheSize       int          // controller LRU cache capacity in pages (0 disables)
	Prefetch        int          // pages fetched per sequential physical I/O (>=1)
}

// Defaults returns the paper's Fig. 4 disk parameters.
func Defaults() Params {
	return Params{
		CtrlPerPage:     1 * sim.Millisecond,
		TransferPerPage: sim.FromMillis(0.4),
		AvgAccess:       15 * sim.Millisecond,
		PrefetchPerPage: 1 * sim.Millisecond,
		CacheSize:       200,
		Prefetch:        4,
	}
}

// Subsystem is the disk subsystem of one PE.
type Subsystem struct {
	k      *sim.Kernel
	ctrl   *sim.Server
	disks  []*sim.Server
	cache  *lru
	params Params

	// slow > 1 stretches every controller and disk service time by that
	// factor (fault injection: a degraded disk subsystem). 0 or 1 is the
	// unmodified fast path — no float multiply touches the durations, so
	// fault-free runs stay bit-identical.
	slow float64

	freeOps []*ioOp // recycled continuation ops

	reads     int64
	writes    int64
	cacheHits int64
	physReads int64 // physical accesses (a prefetch run counts once)
}

// New creates a subsystem with ndisks disk servers and one controller.
func New(k *sim.Kernel, name string, ndisks int, p Params) *Subsystem {
	if ndisks < 1 {
		panic(fmt.Sprintf("disk: %s with %d disks", name, ndisks))
	}
	if p.Prefetch < 1 {
		p.Prefetch = 1
	}
	s := &Subsystem{
		k:      k,
		ctrl:   sim.NewServer(k, name+"/ctrl", 1),
		params: p,
	}
	for i := 0; i < ndisks; i++ {
		s.disks = append(s.disks, sim.NewServer(k, fmt.Sprintf("%s/disk%d", name, i), 1))
	}
	if p.CacheSize > 0 {
		s.cache = newLRU(p.CacheSize)
	}
	return s
}

// SetSlowdown sets the service-time stretch factor of the whole subsystem
// (fault injection). 1 restores normal speed.
func (s *Subsystem) SetSlowdown(f float64) {
	if f <= 1 {
		f = 0 // keep the zero-value fast path
	}
	s.slow = f
}

// stretch applies the degradation factor to a service time.
func (s *Subsystem) stretch(d sim.Duration) sim.Duration {
	if s.slow > 1 {
		return sim.Duration(float64(d) * s.slow)
	}
	return d
}

// NDisks returns the number of disk servers.
func (s *Subsystem) NDisks() int { return len(s.disks) }

// DiskFor maps a storage space to a disk index (stable assignment).
func (s *Subsystem) DiskFor(space int64) int {
	if space < 0 {
		space = -space
	}
	return int(space % int64(len(s.disks)))
}

// ioOp is one page operation under the subsystem's I/O model: a controller
// hold (a cache hit's whole service), then on a miss or a write a disk-arm
// hold and a transfer hold at the controller, after which pages pages from
// pg enter the cache. Durations are unstretched: each hold applies the
// slowdown in force when it starts. The blocking calls run an op in the
// calling process; ReadFn and WriteAsync run a pooled op through
// Server.UseFn with step funcs bound once, so they allocate nothing in
// steady state and their events land where the blocking form's would.
type ioOp struct {
	s                  *Subsystem
	hit                bool
	ctrl, access, xfer sim.Duration
	dsk, pages         int
	pg                 PageID
	then               func(hit bool) // continuation; nil for background writes

	write, toDisk, toXfer, end func()
}

// read counts a page read and plans it: a cache hit is one controller hold
// of control plus transfer; a miss reads Prefetch pages (sequential) or one
// page with a single arm operation.
func (op *ioOp) read(pg PageID, sequential bool) *ioOp {
	s, par := op.s, &op.s.params
	s.reads++
	op.pg, op.hit = pg, s.cache != nil && s.cache.get(pg)
	if op.hit {
		s.cacheHits++
		op.ctrl = par.CtrlPerPage + par.TransferPerPage
		return op
	}
	op.pages = 1
	if sequential && par.Prefetch > 1 {
		op.pages = par.Prefetch
	}
	s.physReads++
	op.ctrl, op.xfer = par.CtrlPerPage, par.TransferPerPage
	op.access = par.AvgAccess + sim.Duration(op.pages)*par.PrefetchPerPage
	return op
}

// writeRun counts and plans a write of n consecutive pages: controller and
// transfer per page, one arm access plus the per-page sequential delay.
func (op *ioOp) writeRun(pg PageID, n int) *ioOp {
	par := &op.s.params
	op.s.writes += int64(n)
	op.pg, op.pages, op.hit = pg, n, false
	op.ctrl, op.xfer = sim.Duration(n)*par.CtrlPerPage, sim.Duration(n)*par.TransferPerPage
	op.access = par.AvgAccess + sim.Duration(n)*par.PrefetchPerPage
	return op
}

// run executes op in the calling process and reports a cache hit.
func (op *ioOp) run(p *sim.Proc) bool {
	s := op.s
	s.ctrl.Use(p, s.stretch(op.ctrl))
	if !op.hit {
		s.disk(op.dsk).Use(p, s.stretch(op.access))
		s.ctrl.Use(p, s.stretch(op.xfer))
		op.fill()
	}
	return op.hit
}

// fill enters a completed miss or write into the controller cache.
func (op *ioOp) fill() {
	for i := 0; op.s.cache != nil && i < op.pages; i++ {
		op.s.cache.put(PageID{Space: op.pg.Space, Page: op.pg.Page + int64(i)})
	}
}

// Read performs a synchronous page read by the calling process.
// sequential enables prefetching on a cache miss. It reports whether the
// page was served from the controller cache.
func (s *Subsystem) Read(p *sim.Proc, dsk int, pg PageID, sequential bool) bool {
	op := ioOp{s: s, dsk: dsk}
	return op.read(pg, sequential).run(p)
}

// ReadFn is Read for run-to-completion light processes (sim.Kernel.SpawnFn):
// the same holds run through Server.UseFn, then then(hit) continues the
// caller where Read would have returned.
func (s *Subsystem) ReadFn(dsk int, pg PageID, sequential bool, then func(hit bool)) {
	s.newOp(dsk, then).read(pg, sequential).start()
}

// Write performs a synchronous page write by the calling process. Written
// pages are inserted into the controller cache (they are frequently re-read
// shortly after, e.g. temporary join partitions).
func (s *Subsystem) Write(p *sim.Proc, dsk int, pg PageID) {
	s.WriteRun(p, dsk, pg, 1)
}

// WriteAsync schedules a background page write that occupies the controller
// and disk without blocking any process (used for no-force buffer flushes).
// It runs as a light process and is planned when it starts, as Write is.
func (s *Subsystem) WriteAsync(dsk int, pg PageID) {
	op := s.newOp(dsk, nil)
	op.pg = pg
	s.k.SpawnFn(op.write)
}

// WriteRun writes n consecutive pages starting at pg with a single physical
// arm operation (sequential temporary-file output): controller and transfer
// per page, one access plus the per-page sequential delay on the disk.
// Written pages enter the controller cache — temporary partitions are
// typically re-read shortly after.
func (s *Subsystem) WriteRun(p *sim.Proc, dsk int, pg PageID, n int) {
	if n >= 1 {
		op := ioOp{s: s, dsk: dsk}
		op.writeRun(pg, n).run(p)
	}
}

// newOp takes a continuation op from the pool.
func (s *Subsystem) newOp(dsk int, then func(bool)) *ioOp {
	var op *ioOp
	if n := len(s.freeOps); n > 0 {
		op = s.freeOps[n-1]
		s.freeOps = s.freeOps[:n-1]
	} else {
		op = &ioOp{s: s}
		op.write = func() { op.writeRun(op.pg, 1).start() }
		op.toDisk = func() { s.disk(op.dsk).UseFn(s.stretch(op.access), op.toXfer) }
		op.toXfer = func() { s.ctrl.UseFn(s.stretch(op.xfer), op.end) }
		op.end = op.finish
	}
	op.dsk, op.then = dsk, then
	return op
}

func (op *ioOp) start() {
	next := op.toDisk
	if op.hit {
		next = op.end
	}
	op.s.ctrl.UseFn(op.s.stretch(op.ctrl), next)
}

// finish completes op as run does, recycles it and continues the caller.
func (op *ioOp) finish() {
	if !op.hit {
		op.fill()
	}
	then, hit := op.then, op.hit
	op.then = nil
	op.s.freeOps = append(op.s.freeOps, op)
	if then != nil {
		then(hit)
	}
}

func (s *Subsystem) disk(i int) *sim.Server {
	if i < 0 || i >= len(s.disks) {
		panic(fmt.Sprintf("disk: index %d of %d", i, len(s.disks)))
	}
	return s.disks[i]
}

// Utilization returns the average utilization across the disk servers.
func (s *Subsystem) Utilization() float64 {
	var u float64
	for _, d := range s.disks {
		u += d.Utilization()
	}
	return u / float64(len(s.disks))
}

// BusyIntegral returns the summed busy-time integral of all disk servers
// (for warm-up-windowed utilization).
func (s *Subsystem) BusyIntegral() float64 {
	var b float64
	for _, d := range s.disks {
		b += d.BusyIntegral()
	}
	return b
}

// UtilizationSince returns average disk utilization over [from, now] given a
// BusyIntegral snapshot at from.
func (s *Subsystem) UtilizationSince(from sim.Time, busyAtFrom float64) float64 {
	window := float64(s.k.Now()-from) * float64(len(s.disks))
	if window <= 0 {
		return 0
	}
	return (s.BusyIntegral() - busyAtFrom) / window
}

// Reads returns the number of logical page reads.
func (s *Subsystem) Reads() int64 { return s.reads }

// Writes returns the number of page writes.
func (s *Subsystem) Writes() int64 { return s.writes }

// CacheHits returns the number of reads served from the controller cache.
func (s *Subsystem) CacheHits() int64 { return s.cacheHits }

// PhysReads returns physical read accesses (prefetch runs count once).
func (s *Subsystem) PhysReads() int64 { return s.physReads }

// lru is a fixed-capacity LRU set of PageIDs.
type lru struct {
	cap   int
	items map[PageID]*lruNode
	head  *lruNode // most recent
	tail  *lruNode // least recent
}

type lruNode struct {
	id         PageID
	prev, next *lruNode
}

func newLRU(capacity int) *lru {
	return &lru{cap: capacity, items: make(map[PageID]*lruNode, capacity)}
}

func (l *lru) get(id PageID) bool {
	n, ok := l.items[id]
	if !ok {
		return false
	}
	l.moveFront(n)
	return true
}

// put makes id the most recent page. A full cache evicts its least recent
// page first and reuses that node for id.
func (l *lru) put(id PageID) {
	if n, ok := l.items[id]; ok {
		l.moveFront(n)
		return
	}
	var n *lruNode
	if len(l.items) >= l.cap {
		n = l.tail
		l.remove(n)
		delete(l.items, n.id)
		n.id = id
	} else {
		n = &lruNode{id: id}
	}
	l.items[id] = n
	l.pushFront(n)
}

func (l *lru) pushFront(n *lruNode) {
	n.next = l.head
	if l.head != nil {
		l.head.prev = n
	}
	l.head = n
	if l.tail == nil {
		l.tail = n
	}
}

func (l *lru) remove(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (l *lru) moveFront(n *lruNode) {
	if l.head == n {
		return
	}
	l.remove(n)
	l.pushFront(n)
}

func (l *lru) len() int { return len(l.items) }
