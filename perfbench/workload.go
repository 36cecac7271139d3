package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"swift/internal/core"
)

const miB = 1 << 20

// workload is one seeded traffic mix against one deployment shape.
type workload struct {
	name      string
	agents    int
	parity    int   // Reed–Solomon parity shards per row; 0 = none
	cacheSize int64 // client block cache bytes; 0 = off (the default)
	// prepare opens the workload's objects, prefills and warms them up:
	// the part of set-up that belongs to the workload.
	prepare func(r *runner) error
	// measure runs the timed phase for d.
	measure func(r *runner, d time.Duration) error
}

// Sizes. The stream objects wrap at streamCap so disk use stays bounded
// however fast the machine is; mixed-small's working set is four times
// the client cache.
const (
	callBytes   = 1 * miB   // stream and ec-degraded call size
	streamCap   = 256 * miB // largest stream object
	warmBytes   = 32 * miB  // stream and ec-degraded warm-up transfer
	mixObjects  = 64
	mixObjBytes = 1 * miB
	mixCache    = 16 * miB
	mixWarmOps  = 2000 // warm-up calls per client goroutine
	mixClients  = 2
	mixWriteP   = 0.2 // share of calls that write
	mixMinBlk   = 1   // smallest call, in 4 KiB blocks
	mixMaxBlk   = 16  // largest call, in 4 KiB blocks
	// mixZipfS skews object popularity so the cache's hot set holds most
	// reads (hit ratio near 0.8); at a ratio near 0.5 read_p50_ms flips
	// between the hit and the miss mode from run to run.
	mixZipfS = 2.5
	// crashAgent is the agent ec-degraded stops between write and read.
	crashAgent = 1
)

var workloads = []*workload{
	{name: "stream", agents: 3, prepare: prepareSeq("stream"), measure: measureSeq(false)},
	{name: "ec-degraded", agents: 5, parity: 2, prepare: prepareSeq("ec"), measure: measureSeq(true)},
	{name: "mixed-small", agents: 3, cacheSize: mixCache, prepare: prepareMixed, measure: measureMixed},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// opStats accumulates one goroutine's calls.
type opStats struct {
	readLat, writeLat     []time.Duration
	readBytes, writeBytes int64
	calls, failed         int64
	firstErr              error
}

func (s *opStats) note(write bool, n int, lat time.Duration, err error, ok bool) {
	s.calls++
	if err != nil || !ok {
		s.failed++
		if s.firstErr == nil {
			if err == nil {
				err = fmt.Errorf("bytes differ from what was written")
			}
			s.firstErr = err
		}
		return
	}
	if write {
		s.writeLat = append(s.writeLat, lat)
		s.writeBytes += int64(n)
	} else {
		s.readLat = append(s.readLat, lat)
		s.readBytes += int64(n)
	}
}

func (s *opStats) merge(o *opStats) {
	s.readLat = append(s.readLat, o.readLat...)
	s.writeLat = append(s.writeLat, o.writeLat...)
	s.readBytes += o.readBytes
	s.writeBytes += o.writeBytes
	s.calls += o.calls
	s.failed += o.failed
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

// more reports whether a loop that has made i calls makes another: until
// the deadline, or, with a zero deadline, until it has made n.
func more(deadline time.Time, n, i int) bool {
	if deadline.IsZero() {
		return i < n
	}
	return time.Now().Before(deadline)
}

// seqState is the single sequential stream of stream and ec-degraded.
type seqState struct {
	name string
	f    *core.File
	buf  []byte
	size int64 // bytes written so far (the object's logical size)
	wpos int64
	rpos int64
}

func prepareSeq(name string) func(r *runner) error {
	return func(r *runner) error {
		r.sh = newShadow(r.content, 1, streamCap)
		f, err := r.c.open(name)
		if err != nil {
			return err
		}
		s := &seqState{name: name, f: f, buf: make([]byte, callBytes)}
		r.seq = s
		var warm opStats
		s.write(r, time.Time{}, warmBytes/callBytes, &warm)
		s.read(r, time.Time{}, warmBytes/callBytes, &warm)
		if warm.failed > 0 {
			return fmt.Errorf("warm-up: %w", warm.firstErr)
		}
		s.wpos, s.rpos = 0, 0
		return nil
	}
}

// write issues sequential 1 MiB writes until the deadline (or, with a
// zero deadline, n calls), wrapping at streamCap.
func (s *seqState) write(r *runner, deadline time.Time, n int, st *opStats) {
	for i := 0; more(deadline, n, i); i++ {
		if s.wpos+callBytes > streamCap {
			s.wpos = 0
		}
		r.sh.fill(0, s.wpos, s.buf)
		t0 := time.Now()
		m, err := s.f.WriteAt(s.buf, s.wpos)
		st.note(true, m, time.Since(t0), err, m == len(s.buf))
		s.wpos += callBytes
		if s.wpos > s.size {
			s.size = s.wpos
		}
	}
}

// read issues sequential 1 MiB reads over what was written, checking
// every byte, until the deadline (or n calls), wrapping at the end.
func (s *seqState) read(r *runner, deadline time.Time, n int, st *opStats) {
	for i := 0; more(deadline, n, i); i++ {
		if s.rpos+callBytes > s.size {
			s.rpos = 0
		}
		clear(s.buf)
		t0 := time.Now()
		m, err := s.f.ReadAt(s.buf, s.rpos)
		lat := time.Since(t0)
		st.note(false, m, lat, err, m == len(s.buf) && r.sh.check(0, s.rpos, s.buf))
		s.rpos += callBytes
	}
}

// rounds is how many rounds the timed phase is cut into. Every
// end-to-end rate, tail and cost is computed per round and reported as
// the median over the rounds (see runner.endToEnd), so a short stall of
// the shared machine moves one round, not the result.
const rounds = 10

// measureSeq returns the timed phase of stream and ec-degraded, cut into
// rounds of one write slice and one read slice. Without crash the slices
// alternate, so writes and reads each sample the whole run. With crash,
// every write slice runs first; then agent crashAgent is stopped and the
// object reopened, untimed; then every read slice.
func measureSeq(crash bool) func(r *runner, d time.Duration) error {
	return func(r *runner, d time.Duration) error {
		s := r.seq
		slice := d / (2 * rounds)
		write := func(i int) {
			r.phase(kindWrite, i, func(st *opStats) { s.write(r, time.Now().Add(slice), 0, st) })
		}
		read := func(i int) {
			r.phase(kindRead, i, func(st *opStats) { s.read(r, time.Now().Add(slice), 0, st) })
		}
		if !crash {
			for i := 0; i < rounds; i++ {
				write(i)
				read(i)
			}
			return r.noteStored(s.size)
		}
		for i := 0; i < rounds; i++ {
			write(i)
		}
		if err := r.noteStored(s.size); err != nil {
			return err
		}
		if err := s.f.Close(); err != nil {
			return fmt.Errorf("close before crash: %w", err)
		}
		if err := r.c.crash(crashAgent); err != nil {
			return err
		}
		var err error
		if s.f, err = r.c.open(s.name); err != nil {
			return fmt.Errorf("reopen after crash: %w", err)
		}
		for i := 0; i < rounds; i++ {
			read(i)
		}
		return nil
	}
}

// mixClient is one closed-loop client goroutine of mixed-small. It owns
// the objects whose index is congruent to its id, so its reads can be
// checked exactly against the shadow.
type mixClient struct {
	objs  []int
	rng   *rand.Rand
	zipf  *rand.Zipf
	buf   []byte
	stats opStats
}

func prepareMixed(r *runner) error {
	r.sh = newShadow(r.content, mixObjects, mixObjBytes)
	r.files = make([]*core.File, mixObjects)
	buf := make([]byte, mixObjBytes)
	for i := range r.files {
		f, err := r.c.open(fmt.Sprintf("obj-%02d", i))
		if err != nil {
			return err
		}
		r.files[i] = f
		r.sh.fill(i, 0, buf)
		if n, err := f.WriteAt(buf, 0); err != nil || n != len(buf) {
			return fmt.Errorf("prefill obj-%02d: %d bytes, %v", i, n, err)
		}
	}
	r.mix = make([]*mixClient, mixClients)
	for g := range r.mix {
		rng := rand.New(rand.NewPCG(r.seed, uint64(g+1)))
		m := &mixClient{rng: rng, buf: make([]byte, mixMaxBlk*blockSize)}
		for i := g; i < mixObjects; i += mixClients {
			m.objs = append(m.objs, i)
		}
		m.zipf = rand.NewZipf(rng, mixZipfS, 1, uint64(len(m.objs)-1))
		r.mix[g] = m
	}
	runMix(r, time.Time{}, mixWarmOps)
	for _, m := range r.mix {
		if m.stats.failed > 0 {
			return fmt.Errorf("warm-up: %w", m.stats.firstErr)
		}
		m.stats = opStats{}
	}
	return r.noteStored(mixObjects * mixObjBytes)
}

func measureMixed(r *runner, d time.Duration) error {
	for i := 0; i < rounds; i++ {
		r.phase(kindMixed, i, func(st *opStats) {
			runMix(r, time.Now().Add(d/rounds), 0)
			for _, m := range r.mix {
				st.merge(&m.stats)
				m.stats = opStats{}
			}
		})
	}
	return nil
}

// runMix runs every mixClient until the deadline (or n calls each) and
// waits for them.
func runMix(r *runner, deadline time.Time, n int) {
	var wg sync.WaitGroup
	for _, m := range r.mix {
		wg.Add(1)
		go func(m *mixClient) {
			defer wg.Done()
			for i := 0; more(deadline, n, i); i++ {
				m.step(r)
			}
		}(m)
	}
	wg.Wait()
}

// step issues one call: a Zipf-chosen object, a 4–64 KiB range at a
// 4 KiB-aligned uniform offset, a read with probability 0.8.
func (m *mixClient) step(r *runner) {
	obj := m.objs[m.zipf.Uint64()]
	nblk := mixMinBlk + m.rng.IntN(mixMaxBlk-mixMinBlk+1)
	blk := m.rng.IntN(mixObjBytes/blockSize - nblk + 1)
	off := int64(blk) * blockSize
	buf := m.buf[:nblk*blockSize]
	f := r.files[obj]
	if m.rng.Float64() < mixWriteP {
		r.sh.fill(obj, off, buf)
		t0 := time.Now()
		n, err := f.WriteAt(buf, off)
		m.stats.note(true, n, time.Since(t0), err, n == len(buf))
		return
	}
	clear(buf)
	t0 := time.Now()
	n, err := f.ReadAt(buf, off)
	lat := time.Since(t0)
	m.stats.note(false, n, lat, err, n == len(buf) && r.sh.check(obj, off, buf))
}

// latencies summarizes one op type's per-call latencies.
type latencies struct {
	n         int
	p50, tail time.Duration
	tailPct   float64 // percentile the tail was taken at
}

// summarize returns the median and the tail: the highest percentile with
// at least ten samples beyond it, i.e. the 11th-largest sample.
func summarize(lat []time.Duration) latencies {
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	l := latencies{n: len(s)}
	if len(s) == 0 {
		return l
	}
	l.p50 = s[len(s)/2]
	if len(s)%2 == 0 {
		l.p50 = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := len(s) - 11
	if i < 0 {
		i = 0
	}
	l.tail = s[i]
	l.tailPct = 100 * float64(i+1) / float64(len(s))
	return l
}
