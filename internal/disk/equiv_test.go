package disk

import (
	"math/rand"
	"testing"

	"dynlb/internal/sim"
)

// diskStamp is one point of a kernel trace: the simulated time and the
// number of events dispatched so far. Two runs whose stamps agree at every
// observation dispatched their events at the same (time, seq) positions.
type diskStamp struct {
	t sim.Time
	n int64
}

// ioStep is one operation of a client's script.
type ioStep struct {
	dsk        int
	pg         PageID
	write      bool // synchronous write (else a read)
	sequential bool
	async      bool // also start a background write of pg
}

// diskScripts draws each client's start time and operations: sequential
// runs (prefetching misses, then cache hits on the prefetched pages),
// random reads over a hot set larger than the cache (hits and misses),
// synchronous writes and background writes.
func diskScripts(seed int64, clients int) ([]sim.Duration, [][]ioStep) {
	rng := rand.New(rand.NewSource(seed))
	starts := make([]sim.Duration, clients)
	scripts := make([][]ioStep, clients)
	for c := range scripts {
		starts[c] = sim.Duration(rng.Intn(20)) * sim.Millisecond
		for i := 0; i < 30; i++ {
			st := ioStep{dsk: rng.Intn(2), pg: PageID{Space: int64(rng.Intn(3)), Page: int64(rng.Intn(40))}}
			switch r := rng.Intn(10); {
			case r < 3:
				st.sequential = true
				st.pg.Page = int64(c*1000 + i)
			case r < 5:
				st.write = true
			}
			st.async = rng.Intn(4) == 0
			scripts[c] = append(scripts[c], st)
		}
	}
	return starts, scripts
}

// diskTrace runs the scripts through one subsystem — as blocking processes
// (Read, Write, and a spawned Write process per background write) or as
// light processes (ReadFn, the continuation write and WriteAsync) — with a
// slowdown switched on and off mid-run, and returns the kernel trace plus
// the subsystem's counters.
func diskTrace(seed int64, light bool) ([]diskStamp, [4]int64) {
	k := sim.NewKernel()
	p := Defaults()
	p.CacheSize = 24
	s := New(k, "pe0", 2, p)
	k.At(30*sim.Millisecond, func() { s.SetSlowdown(2.5) })
	k.At(120*sim.Millisecond, func() { s.SetSlowdown(1) })
	var trace []diskStamp
	stamp := func() { trace = append(trace, diskStamp{k.Now(), k.Stats().Dispatched}) }

	starts, scripts := diskScripts(seed, 6)
	for c, script := range scripts {
		if !light {
			k.SpawnAt(starts[c], "client", func(proc *sim.Proc) {
				for _, st := range script {
					if st.async {
						k.Spawn("disk-write-async", func(wp *sim.Proc) { s.Write(wp, st.dsk, st.pg) })
					}
					if st.write {
						s.Write(proc, st.dsk, st.pg)
					} else {
						s.Read(proc, st.dsk, st.pg, st.sequential)
					}
					stamp()
				}
			})
			continue
		}
		i := 0
		var step func()
		done := func(bool) { stamp(); i++; step() }
		step = func() {
			if i == len(script) {
				return
			}
			st := script[i]
			if st.async {
				s.WriteAsync(st.dsk, st.pg)
			}
			if st.write {
				s.newOp(st.dsk, done).writeRun(st.pg, 1).start()
			} else {
				s.ReadFn(st.dsk, st.pg, st.sequential, done)
			}
		}
		k.At(starts[c], step)
	}
	k.RunAll()
	stamp()
	return trace, [4]int64{s.Reads(), s.Writes(), s.CacheHits(), s.PhysReads()}
}

// TestContinuationIOEquivalence: the continuation disk operations dispatch
// exactly the events the blocking ones do, through a contended controller
// and disks, across cache hits, prefetching misses and a slowdown factor
// above 1 that starts and ends while operations are in flight.
func TestContinuationIOEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		want, wantN := diskTrace(seed, false)
		got, gotN := diskTrace(seed, true)
		if gotN != wantN {
			t.Fatalf("seed %d: counters (reads, writes, hits, phys) %v, want %v", seed, gotN, wantN)
		}
		if wantN[2] == 0 || wantN[3] == 0 {
			t.Fatalf("seed %d: workload lacks hits or misses: %v", seed, wantN)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: trace lengths %d vs %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: traces diverge at %d: %+v vs %+v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestHotPathZeroAllocs is the disk member of the kernel's alloc gate: a
// light process alternating continuation reads (hits and prefetching
// misses) with background writes must not allocate in steady state — the
// ops, the UseFn holds and the cache nodes are all recycled.
func TestHotPathZeroAllocs(t *testing.T) {
	t.Run("continuationDiskIO", func(t *testing.T) {
		k := sim.NewKernel()
		s := New(k, "pe0", 2, Defaults())
		var page int64
		var next func(bool)
		next = func(bool) {
			page++
			s.WriteAsync(int(page%2), PageID{Space: 7, Page: page % 300})
			s.ReadFn(int(page%2), PageID{Space: 1, Page: page}, true, next)
		}
		s.ReadFn(0, PageID{Space: 1}, true, next)
		// A dense burst of no-op events gives every calendar bucket the
		// capacity the sparse disk events need; otherwise first touches
		// of buckets keep allocating long after the disk path is warm.
		nop := func() {}
		for t := sim.Time(0); t < 40*sim.Millisecond; t += sim.Microsecond {
			k.At(t, nop)
		}
		horizon := k.Now()
		advance := func() {
			horizon += 50 * sim.Millisecond
			k.Run(horizon)
		}
		for i := 0; i < 400; i++ { // pools, cache and calendar buckets fill
			advance()
		}
		if avg := testing.AllocsPerRun(100, advance); avg != 0 {
			t.Errorf("continuation disk I/O: %.2f allocs per horizon advance, want 0", avg)
		}
		if s.CacheHits() == 0 || s.PhysReads() == 0 {
			t.Errorf("hits %d, physical reads %d: want both", s.CacheHits(), s.PhysReads())
		}
	})
}
