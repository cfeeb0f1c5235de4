package engine

import (
	"fmt"

	"dynlb/internal/buffer"
	"dynlb/internal/disk"
	"dynlb/internal/lock"
	"dynlb/internal/sim"
)

const bufferQueryPriority = buffer.PriorityQuery

func pageID(space, page int64) disk.PageID { return disk.PageID{Space: space, Page: page} }

// acctSpaceFor returns the storage-space id of pe's account relation.
func acctSpaceFor(pe int) int64 { return spaceOLTPBase - 2*int64(pe) }

// maxOLTPRetries bounds deadlock-abort retries.
const maxOLTPRetries = 3

// scratchPagesPerTxn is each transaction's pinned private workspace.
const scratchPagesPerTxn = 2

// runOLTP executes one debit-credit-style transaction on its home PE: four
// non-clustered index selects on the local account relation with updates of
// the selected tuples, strict 2PL, a forced log write at commit, and pages
// pinned until commit (the transaction's memory footprint). OLTP has
// priority over join working spaces in the buffer (Section 4, footnote 4).
func (s *System) runOLTP(p *sim.Proc, pe *PE, arrival sim.Time) {
	pe.mpl.Get(p, 1)
	defer pe.mpl.Put(1)

	o := &s.cfg.OLTP
	c := &s.cfg
	ct := &s.ct
	acct := acctSpaceFor(pe.id)

	// Fault retries (fAttempt) are counted separately from deadlock retries
	// (attempt): a crashed home PE is not the transaction's fault, so it
	// backs off and resubmits without consuming the deadlock budget. OLTP
	// has node affinity — the account fragment lives on the home PE — so it
	// keeps retrying until the PE recovers.
	fAttempt := 0
	for attempt := 0; attempt <= maxOLTPRetries; {
		if s.faults != nil && !s.faults.hostUp(pe.id) {
			s.faults.noteAbort()
			p.Wait(retryBackoff(fAttempt))
			s.faults.noteRetry()
			fAttempt++
			continue
		}
		txnStart := s.k.Now()
		txn := s.newTxnID()
		pe.computeT(p, ct.initTxn)

		var pinned []disk.PageID
		unpin := func() {
			for _, pg := range pinned {
				pe.buf.Unfix(pg)
			}
			pinned = nil
		}

		// Private workspace (log buffer, update workspace) reserved for the
		// transaction's duration: the OLTP memory footprint the control
		// node's AVAIL-MEMORY sees. High priority: taken ahead of queued
		// join reservations, stealing join frames if necessary.
		scratch := pe.buf.NewSpace(fmt.Sprintf("pe%d/oltp%d", pe.id, txn), buffer.PriorityOLTP, 0)
		scratch.AcquireBestEffort(scratchPagesPerTxn)

		aborted := false
		faultAborted := false
		for i := 0; i < o.AccessesPerTx && !aborted; i++ {
			if s.faults != nil && s.faults.failedSince(pe.id, txnStart) {
				faultAborted = true
				break
			}
			var page int64
			if s.rng.Float64() < o.HotAccessProb {
				page = s.rng.Int63n(o.HotSetPages)
			} else {
				page = o.HotSetPages + s.rng.Int63n(o.AccountPages-o.HotSetPages)
			}
			// Non-clustered index traversal: the account index is hot and
			// memory resident (three levels of key comparisons, CPU only).
			pe.computeT(p, ct.oltpIndex)

			// Long write lock on the selected tuple.
			tuple := page*int64(c.Blocking) + s.rng.Int63n(int64(c.Blocking))
			if err := pe.locks.Lock(p, txn, lock.Key{Space: acct, Item: tuple}, lock.Exclusive); err != nil {
				aborted = true
				break
			}
			dataPg := pageID(acct, page)
			pe.buf.Fix(p, dataPg, true, false, buffer.PriorityOLTP)
			pinned = append(pinned, dataPg)
			pe.computeT(p, ct.tupleRW)
		}

		if faultAborted {
			// The home PE crashed mid-transaction: the work is lost. Clean
			// up (pure bookkeeping — no CPU is charged on a dead PE), back
			// off and resubmit once the retry timer fires.
			unpin()
			scratch.Close()
			pe.locks.ReleaseAll(txn)
			s.faults.noteAbort()
			p.Wait(retryBackoff(fAttempt))
			s.faults.noteRetry()
			fAttempt++
			continue
		}
		if aborted {
			s.aborts++
			unpin()
			scratch.Close()
			pe.locks.ReleaseAll(txn)
			pe.computeT(p, ct.termTxnHalf)
			attempt++
			continue // retry
		}

		// Commit: force the log, then release everything.
		pe.computeT(p, ct.termTxn)
		pe.computeT(p, ct.io)
		pe.logDisk.Write(p, 0, pageID(-int64(pe.id)-1, s.nextQuery+int64(s.oltpStarted)))
		unpin()
		scratch.Close()
		pe.locks.ReleaseAll(txn)

		if s.measuring {
			s.oltpStarted++
			s.oltpRT.Add((s.k.Now() - arrival).Milliseconds())
		}
		return
	}
	// Retries exhausted: give up (counted in aborts).
}
