package core

import (
	"fmt"
	"sync"

	"swift/internal/extent"
	"swift/internal/integrity"
	"swift/internal/obs"
	"swift/internal/wire"
)

// This file is the engine's redundancy machinery: computing the k parity
// units of every written stripe row through the erasure codec
// (internal/ec), reconstructing missing units on the degraded read path,
// auditing rows (VerifyParity) and rebuilding whole fragments after an
// agent returns. At k=1 the codec is the legacy XOR computed copy —
// byte-identical placement and parity bytes — and at k>=2 it is a
// Reed–Solomon code tolerating up to k simultaneous failures per row.

// computeParity builds the parity units for every stripe row touched by a
// write of src at logical offset off. Rows only partially covered by the
// write are completed with a read-modify-write: the uncovered old bytes
// are fetched (degraded-tolerant) before the codec runs. Parity units
// always span the full striping unit; logical bytes past the object tail
// count as zeros. The result maps row -> k parity buffers in parity
// position order.
func (f *File) computeParity(src []byte, off int64, sp *obs.Span) (map[int64][][]byte, error) {
	l := f.c.layout
	m := l.DataPerRow()
	k := f.c.parityK()
	rb := l.RowBytes()
	end := off + int64(len(src))
	r0, r1 := l.RowOfGlobal(off), l.RowOfGlobal(end-1)

	pbufs := make(map[int64][][]byte, r1-r0+1)
	rowData := make([]byte, rb)
	shards := make([][]byte, m+k)
	for r := r0; r <= r1; r++ {
		rowOff := r * rb
		covLo, covHi := rowOff, rowOff+rb
		if covLo < off {
			covLo = off
		}
		if covHi > end {
			covHi = end
		}
		// Old data for the uncovered head and tail of the row
		// (clamped to the current size; beyond it everything is zero).
		for i := range rowData {
			rowData[i] = 0
		}
		if err := f.fillOldRow(rowData, rowOff, covLo, covHi, sp); err != nil {
			return nil, err
		}
		copy(rowData[covLo-rowOff:covHi-rowOff], src[covLo-off:covHi-off])

		for j := 0; j < m; j++ {
			shards[j] = rowData[int64(j)*l.Unit : int64(j+1)*l.Unit]
		}
		row := make([][]byte, k)
		for j := 0; j < k; j++ {
			row[j] = make([]byte, l.Unit)
			shards[m+j] = row[j]
		}
		if err := f.ecEncode(shards); err != nil {
			return nil, fmt.Errorf("core: encode row %d: %w", r, err)
		}
		pbufs[r] = row
	}
	return pbufs, nil
}

// fillOldRow reads the pre-write content of row bytes outside [covLo,
// covHi) into rowData (whose first byte is logical offset rowOff). The
// read is failover-capable: a write's read-modify-write must survive up
// to k agent failures (reading the old bytes degraded) or a mid-write
// crash would fail the whole write even though parity covers it.
func (f *File) fillOldRow(rowData []byte, rowOff, covLo, covHi int64, sp *obs.Span) error {
	rb := int64(len(rowData))
	read := func(lo, hi int64) error {
		if hi > f.size {
			hi = f.size // beyond the tail is zeros already
		}
		if lo >= hi {
			return nil
		}
		return f.readRange(rowData[lo-rowOff:hi-rowOff], lo, true, sp)
	}
	if err := read(rowOff, covLo); err != nil {
		return err
	}
	return read(covHi, rowOff+rb)
}

// readRowShards reads row r's units from every agent with a live session,
// except those listed in omit, and returns them in code order (data
// shards 0..m-1, parity shards m..m+k-1) with nil marking units that
// could not be read. Reads run in parallel.
//
// A per-agent read failure does not abort the row as long as at least m
// units survive: the failed unit becomes one more missing shard for the
// codec to correct, which is exactly what a second agent dying in the
// middle of an already-degraded read must look like, or a double failure
// under k=2 would error out of the reconstruct path instead of being
// masked. Attributable (non-media) failures are fed into the
// failure-domain lifecycle so the session is torn down at once — leaving
// it up would stall every later row for a full retry budget against a
// dead agent. Only when fewer than m units survive (more damage than any
// codec can cover) does the first error propagate.
func (f *File) readRowShards(r int64, omit func(agent int) bool) ([][]byte, error) {
	l := f.c.layout
	m := l.DataPerRow()
	shards := make([][]byte, m+f.c.parityK())
	type readFail struct {
		agent int
		err   error
	}
	var (
		mu    sync.Mutex
		wg    sync.WaitGroup
		fails []readFail
	)
	// Agents with an open circuit breaker are skipped — their unit becomes
	// one more missing shard — as long as enough candidates remain to
	// reach m units: a tripped straggler must not stall every
	// reconstruction for its whole cooldown. When shards are scarce the
	// breaker is overridden; slow beats unreadable.
	live := 0
	for i, s := range f.sessions {
		if s != nil && (omit == nil || !omit(i)) {
			live++
		}
	}
	for i, s := range f.sessions {
		if s == nil || (omit != nil && omit(i)) {
			continue
		}
		if !f.c.breakerAllow(i) && live-1 >= m {
			live--
			continue
		}
		pos := l.DataPos(r, i)
		if pos < 0 {
			pos = m + l.ParityPos(r, i)
		}
		wg.Add(1)
		go func(i int, s *agentSession, pos int) {
			defer wg.Done()
			buf := make([]byte, l.Unit)
			err := f.readBurst(s, r*l.Unit, l.Unit, func(localOff int64, b []byte) {
				copy(buf[localOff-r*l.Unit:], b)
			}, nil, false)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				fails = append(fails, readFail{agent: i, err: err})
				return
			}
			shards[pos] = buf
		}(i, s, pos)
	}
	wg.Wait()
	if len(fails) == 0 {
		return shards, nil
	}
	present := 0
	for _, sh := range shards {
		if sh != nil {
			present++
		}
	}
	if present < m {
		return nil, fails[0].err
	}
	for _, fl := range fails {
		if integrity.IsCorrupt(fl.err) {
			// Media damage, not a dead agent: keep the session in
			// service (read-repair and scrub heal it) and let the codec
			// route around the one bad unit.
			continue
		}
		if isOverloadSignal(fl.err) {
			// Backpressure (pushback, spent deadline): the agent is
			// healthy, the codec routes around the missing unit, and the
			// lifecycle stays untouched.
			continue
		}
		f.c.cfg.Logf("core: row %d read lost agent %d, reconstructing around it: %v",
			r, fl.agent, fl.err)
		f.failAgent(fl.agent, fl.err)
	}
	return shards, nil
}

// shardOfAgent returns the code-order shard index of the given agent in
// row r.
func (f *File) shardOfAgent(r int64, agent int) int {
	l := f.c.layout
	if j := l.DataPos(r, agent); j >= 0 {
		return j
	}
	return l.DataPerRow() + l.ParityPos(r, agent)
}

// reconstructRow reads the surviving units of row r (excluding agents for
// which omit returns true) and reconstructs the full row through the
// codec. It returns the shards in code order; every shard is non-nil on
// success. Reconstruction succeeds as long as at most k units are
// unavailable (dead sessions plus omitted agents).
func (f *File) reconstructRow(r int64, omit func(agent int) bool) ([][]byte, error) {
	shards, err := f.readRowShards(r, omit)
	if err != nil {
		return nil, err
	}
	if err := f.ecReconstruct(shards); err != nil {
		return nil, err
	}
	return shards, nil
}

// reconstructInto rebuilds the fragment extents of a failed agent from
// the surviving agents' units, placing the recovered logical bytes into
// dst (first byte = logical offset base). This is the degraded-mode read
// path of computed-copy redundancy; with k parity units it tolerates up
// to k simultaneous failures per row.
func (f *File) reconstructInto(dead int, es []extent.Extent, dst []byte, base int64) error {
	l := f.c.layout
	seen := make(map[int64]bool)
	for _, e := range es {
		for r := e.Off / l.Unit; r <= (e.End()-1)/l.Unit; r++ {
			if seen[r] {
				continue
			}
			seen[r] = true
			unit, err := f.reconstructUnit(dead, r)
			if err != nil {
				return err
			}
			// Place the requested portion(s) of this unit.
			uLo, uHi := r*l.Unit, (r+1)*l.Unit
			lo, hi := e.Off, e.End()
			if lo < uLo {
				lo = uLo
			}
			if hi > uHi {
				hi = uHi
			}
			if lo >= hi {
				continue
			}
			g, ok := l.GlobalOf(dead, lo)
			if !ok {
				continue // parity unit: not logical data
			}
			di := g - base
			if di < 0 || di >= int64(len(dst)) {
				continue
			}
			n := hi - lo
			if di+n > int64(len(dst)) {
				n = int64(len(dst)) - di
			}
			copy(dst[di:di+n], unit[lo-uLo:lo-uLo+n])
		}
	}
	return nil
}

// reconstructUnit rebuilds the unit of row r held by agent dead (data or
// parity alike) from the surviving agents' units through the codec.
func (f *File) reconstructUnit(dead int, r int64) ([]byte, error) {
	shards, err := f.reconstructRow(r, func(a int) bool { return a == dead })
	if err != nil {
		return nil, err
	}
	return shards[f.shardOfAgent(r, dead)], nil
}

// VerifyParity scrubs the file: for every stripe row it reads all units
// from all agents and checks that the parity units match the codec's
// encoding of the data units. It returns the rows that fail, in
// ascending order — the maintenance pass a Swift installation would run
// after crashes.
func (f *File) VerifyParity() ([]int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrClosed
	}
	if f.c.parityK() == 0 {
		return nil, fmt.Errorf("core: verify requires parity")
	}
	if f.liveCount() < len(f.sessions) {
		return nil, fmt.Errorf("core: verify requires all agents up")
	}
	if f.size == 0 {
		return nil, nil
	}
	l := f.c.layout
	var bad []int64
	lastRow := l.RowOfGlobal(f.size - 1)
	for r := int64(0); r <= lastRow; r++ {
		shards, err := f.readRowShards(r, nil)
		if err != nil {
			return nil, fmt.Errorf("core: verify row %d: %w", r, err)
		}
		ok, verr := f.c.codec.Verify(shards)
		if verr != nil {
			return nil, fmt.Errorf("core: verify row %d: %w", r, verr)
		}
		if !ok {
			bad = append(bad, r)
		}
	}
	return bad, nil
}

// RepairRow recomputes and rewrites the parity units of one row from its
// data units, fixing a scrub finding whose data is trusted.
func (f *File) RepairRow(r int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	l := f.c.layout
	k := f.c.parityK()
	if k == 0 {
		return fmt.Errorf("core: repair requires parity")
	}
	for j := 0; j < k; j++ {
		if pa := l.ParityAgentAt(r, j); pa >= len(f.sessions) || f.sessions[pa] == nil {
			return fmt.Errorf("core: repair: parity agent %d down", pa)
		}
	}
	// Read the data units and re-encode the row's parity.
	shards, err := f.readRowShards(r, func(a int) bool { return l.ParityPos(r, a) >= 0 })
	if err != nil {
		return err
	}
	m := l.DataPerRow()
	for j := 0; j < k; j++ {
		shards[m+j] = make([]byte, l.Unit)
	}
	if err := f.ecEncode(shards); err != nil {
		return fmt.Errorf("core: repair row %d: %w", r, err)
	}
	for j := 0; j < k; j++ {
		pa := l.ParityAgentAt(r, j)
		lo := l.ParityLocal(r)
		unit := shards[m+j]
		err := f.runWriteBursts(f.sessions[pa], []span{{lo: lo, n: l.Unit}}, func(localOff int64, out []byte) {
			copy(out, unit[localOff-lo:])
		}, nil)
		if err != nil {
			return err
		}
	}
	return nil
}

// Rebuild reconstructs every unit (data and parity) that agent idx should
// hold for this file and writes it back to that agent, then trims the
// fragment to its expected size. A session to the agent must exist; the
// health monitor performs this automatically on re-admission when
// Config.AutoRebuild is set. With k >= 2 the rebuild succeeds even
// while other agents (up to k-1 of them) are still down.
func (f *File) Rebuild(idx int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	return f.rebuildLocked(idx)
}

// rebuildLocked is Rebuild with f.mu held (re-admission calls it before
// the fresh session becomes visible to reads).
func (f *File) rebuildLocked(idx int) error {
	if f.c.parityK() == 0 {
		return fmt.Errorf("core: rebuild requires parity")
	}
	if idx < 0 || idx >= len(f.sessions) || f.sessions[idx] == nil {
		return fmt.Errorf("core: rebuild: no session to agent %d", idx)
	}
	s := f.sessions[idx]
	l := f.c.layout
	if f.size == 0 {
		return nil
	}
	lastRow := l.RowOfGlobal(f.size - 1)
	for r := int64(0); r <= lastRow; r++ {
		unit, err := f.reconstructUnit(idx, r)
		if err != nil {
			return fmt.Errorf("core: rebuild row %d: %w", r, err)
		}
		lo := r * l.Unit
		err = f.runWriteBursts(s, []span{{lo: lo, n: l.Unit}}, func(localOff int64, out []byte) {
			copy(out, unit[localOff-lo:])
		}, nil)
		if err != nil {
			return fmt.Errorf("core: rebuild row %d: %w", r, err)
		}
	}
	// Trim the fragment: the tail data unit may be partial.
	want := l.FragmentSizes(f.size)[idx]
	reqID := f.c.nextReq()
	reply, err := f.c.rpc(s.conn, s.dataAddr, &wire.Packet{
		Header: wire.Header{Type: wire.TTrunc, ReqID: reqID, Handle: s.handle, Offset: want},
	}, reqID)
	if err != nil {
		return fmt.Errorf("core: rebuild trim: %w", err)
	}
	if reply.Type != wire.TTruncReply {
		return fmt.Errorf("core: unexpected %v to rebuild trim", reply.Type)
	}
	return nil
}
