package ec

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Shard order convention: a stripe row is a slice of m+k shards, data
// first (indices 0..m-1) then parity (indices m..m+k-1). In Reconstruct
// a nil shard marks a missing unit; everywhere else all shards must be
// present. Shards may be shorter than the row's striping unit — short
// shards are treated as zero-padded, matching the engine's convention
// that tail data units end at the file while parity units always span
// the full unit.

var (
	// ErrShardCount reports a shards slice whose length is not m+k.
	ErrShardCount = errors.New("ec: wrong number of shards")
	// ErrTooFewShards reports a Reconstruct call with fewer than m
	// present shards: the row is beyond the code's correction power.
	ErrTooFewShards = errors.New("ec: too few shards to reconstruct")
)

// Codec encodes and reconstructs stripe rows for one (m data, k parity)
// scheme. Implementations are safe for concurrent use.
type Codec interface {
	// DataShards returns m, the number of data units per row.
	DataShards() int
	// ParityShards returns k, the number of parity units per row.
	ParityShards() int
	// Encode fills the k parity shards from the m data shards. All
	// m+k shards must be non-nil; parity shards define the row width.
	Encode(shards [][]byte) error
	// Reconstruct rebuilds every nil shard from the present ones.
	// At least m shards must be present. Rebuilt shards are allocated
	// to the widest present shard's length.
	Reconstruct(shards [][]byte) error
	// Verify reports whether the parity shards match the data shards.
	Verify(shards [][]byte) (bool, error)
	// Stats returns a snapshot of the codec's work counters.
	Stats() Stats
	// String returns the scheme as "m+k", e.g. "8+2".
	String() string
}

// Stats is a value snapshot of one codec's counters. All fields are
// monotonic since codec construction.
type Stats struct {
	EncodeCalls      int64
	EncodeBytes      int64 // data bytes consumed by Encode
	ReconstructCalls int64
	ReconstructBytes int64 // bytes of shards rebuilt
	InvCacheHits     int64 // decode-matrix inversions served from cache
	InvCacheMisses   int64 // decode-matrix inversions computed
	// ByMissing[n] counts Reconstruct calls that rebuilt exactly n
	// shards (index 0 unused; length k+1).
	ByMissing []int64
}

// Sub returns the counter deltas s - prev (ByMissing is differenced
// element-wise over the shorter of the two).
func (s Stats) Sub(prev Stats) Stats {
	d := Stats{
		EncodeCalls:      s.EncodeCalls - prev.EncodeCalls,
		EncodeBytes:      s.EncodeBytes - prev.EncodeBytes,
		ReconstructCalls: s.ReconstructCalls - prev.ReconstructCalls,
		ReconstructBytes: s.ReconstructBytes - prev.ReconstructBytes,
		InvCacheHits:     s.InvCacheHits - prev.InvCacheHits,
		InvCacheMisses:   s.InvCacheMisses - prev.InvCacheMisses,
		ByMissing:        append([]int64(nil), s.ByMissing...),
	}
	for i := range d.ByMissing {
		if i < len(prev.ByMissing) {
			d.ByMissing[i] -= prev.ByMissing[i]
		}
	}
	return d
}

// counters is the shared atomic instrument block.
type counters struct {
	encodeCalls      atomic.Int64
	encodeBytes      atomic.Int64
	reconstructCalls atomic.Int64
	reconstructBytes atomic.Int64
	invCacheHits     atomic.Int64
	invCacheMisses   atomic.Int64
	byMissing        []atomic.Int64 // length k+1
}

func newCounters(k int) *counters {
	return &counters{byMissing: make([]atomic.Int64, k+1)}
}

func (c *counters) snapshot() Stats {
	s := Stats{
		EncodeCalls:      c.encodeCalls.Load(),
		EncodeBytes:      c.encodeBytes.Load(),
		ReconstructCalls: c.reconstructCalls.Load(),
		ReconstructBytes: c.reconstructBytes.Load(),
		InvCacheHits:     c.invCacheHits.Load(),
		InvCacheMisses:   c.invCacheMisses.Load(),
		ByMissing:        make([]int64, len(c.byMissing)),
	}
	for i := range c.byMissing {
		s.ByMissing[i] = c.byMissing[i].Load()
	}
	return s
}

// New returns a Codec for m data and k parity shards. k=1 returns the
// XOR codec: the paper's single computed copy, which is exactly the
// degenerate single-parity Reed–Solomon code (TestXORCompat proves the
// two byte-identical) but cheaper to compute. k>=2 returns the
// Reed–Solomon codec.
func New(m, k int) (Codec, error) {
	if err := validate(m, k); err != nil {
		return nil, err
	}
	if k == 1 {
		return &xorCodec{m: m, ctr: newCounters(1)}, nil
	}
	return newRS(m, k)
}

// NewRS returns the Reed–Solomon codec even for k=1, bypassing the XOR
// fast path. Only the compatibility tests need this: they prove that
// RS(m,1) produces byte-identical parity to plain XOR, which is what
// licenses New's k=1 shortcut.
func NewRS(m, k int) (Codec, error) {
	if err := validate(m, k); err != nil {
		return nil, err
	}
	return newRS(m, k)
}

func validate(m, k int) error {
	if m < 1 || k < 1 {
		return fmt.Errorf("ec: need at least 1 data and 1 parity shard (have m=%d k=%d)", m, k)
	}
	if m+k > 256 {
		return fmt.Errorf("ec: m+k must be <= 256 over GF(2^8) (have %d)", m+k)
	}
	return nil
}

// checkShards validates the shard count and, when requireAll is set,
// that every shard is non-nil.
func checkShards(shards [][]byte, total int, requireAll bool) error {
	if len(shards) != total {
		return fmt.Errorf("%w: have %d want %d", ErrShardCount, len(shards), total) //lint:allow hotalloc shard-shape validation failure is a caller bug, cold
	}
	if requireAll {
		for i, s := range shards {
			if s == nil {
				return fmt.Errorf("ec: shard %d is nil", i) //lint:allow hotalloc shard-shape validation failure is a caller bug, cold
			}
		}
	}
	return nil
}

// rowWidth returns the widest present shard's length.
func rowWidth(shards [][]byte) int {
	w := 0
	for _, s := range shards {
		if len(s) > w {
			w = len(s)
		}
	}
	return w
}

// ---------------------------------------------------------------------
// Reed–Solomon codec (k >= 2, or k = 1 via NewRS for compat proofs).

type rsCodec struct {
	m, k int
	a    matrix // k×m parity sub-matrix of the systematic generator
	ctr  *counters

	mu  sync.RWMutex
	inv map[uint32]matrix // present-shard bitmask → m×m decode matrix
}

func newRS(m, k int) (*rsCodec, error) {
	return &rsCodec{
		m:   m,
		k:   k,
		a:   codingMatrix(m, k),
		ctr: newCounters(k),
		inv: make(map[uint32]matrix),
	}, nil
}

func (c *rsCodec) DataShards() int   { return c.m }
func (c *rsCodec) ParityShards() int { return c.k }
func (c *rsCodec) String() string    { return fmt.Sprintf("%d+%d", c.m, c.k) }
func (c *rsCodec) Stats() Stats      { return c.ctr.snapshot() }

// Encode fills the k parity shards from the m data shards in place:
// the per-row write-path kernel.
//
//swift:hotpath
func (c *rsCodec) Encode(shards [][]byte) error {
	if err := checkShards(shards, c.m+c.k, true); err != nil {
		return err
	}
	data := shards[:c.m]
	var nbytes int64
	for _, d := range data {
		nbytes += int64(len(d))
	}
	for p := 0; p < c.k; p++ {
		out := shards[c.m+p]
		clearSlice(out)
		arow := c.a.row(p)
		for d, coeff := range arow {
			mulAddSlice(coeff, data[d], out)
		}
	}
	c.ctr.encodeCalls.Add(1)
	c.ctr.encodeBytes.Add(nbytes)
	return nil
}

func (c *rsCodec) Verify(shards [][]byte) (bool, error) {
	if err := checkShards(shards, c.m+c.k, true); err != nil {
		return false, err
	}
	width := rowWidth(shards)
	want := make([]byte, width)
	for p := 0; p < c.k; p++ {
		clearSlice(want)
		arow := c.a.row(p)
		for d, coeff := range arow {
			mulAddSlice(coeff, shards[d], want)
		}
		have := shards[c.m+p]
		for i := range want {
			var hv byte
			if i < len(have) {
				hv = have[i]
			}
			if want[i] != hv {
				return false, nil
			}
		}
	}
	return true, nil
}

func (c *rsCodec) Reconstruct(shards [][]byte) error {
	total := c.m + c.k
	if err := checkShards(shards, total, false); err != nil {
		return err
	}
	var presentMask uint32
	present, missing := 0, 0
	for i, s := range shards {
		if s != nil {
			presentMask |= 1 << uint(i)
			present++
		} else {
			missing++
		}
	}
	if missing == 0 {
		return nil
	}
	if present < c.m {
		return fmt.Errorf("%w: %d present, need %d", ErrTooFewShards, present, c.m)
	}
	width := rowWidth(shards)

	// Choose the first m present shards as decode inputs and fetch the
	// cached inverse of the corresponding generator rows.
	dec, inputs := c.decodeMatrix(presentMask)

	// Rebuild missing data shards: data[j] = Σ_i dec[j][i] · input[i].
	var rebuilt int64
	for j := 0; j < c.m; j++ {
		if shards[j] != nil {
			continue
		}
		out := make([]byte, width)
		drow := dec.row(j)
		for i, idx := range inputs {
			mulAddSlice(drow[i], shards[idx], out)
		}
		shards[j] = out
		rebuilt += int64(width)
	}

	// Rebuild missing parity shards from the (now complete) data.
	for p := 0; p < c.k; p++ {
		if shards[c.m+p] != nil {
			continue
		}
		out := make([]byte, width)
		arow := c.a.row(p)
		for d, coeff := range arow {
			mulAddSlice(coeff, shards[d], out)
		}
		shards[c.m+p] = out
		rebuilt += int64(width)
	}

	c.ctr.reconstructCalls.Add(1)
	c.ctr.reconstructBytes.Add(rebuilt)
	if missing < len(c.ctr.byMissing) {
		c.ctr.byMissing[missing].Add(1)
	} else {
		c.ctr.byMissing[len(c.ctr.byMissing)-1].Add(1)
	}
	return nil
}

// decodeMatrix returns the m×m matrix that maps the first m present
// shards (in index order) back to the m data shards, plus the shard
// indices chosen as inputs. Inversions are cached by present-shard
// bitmask; repeated degraded reads against the same failure set hit
// the cache.
func (c *rsCodec) decodeMatrix(presentMask uint32) (matrix, []int) {
	inputs := make([]int, 0, c.m)
	for i := 0; i < c.m+c.k && len(inputs) < c.m; i++ {
		if presentMask&(1<<uint(i)) != 0 {
			inputs = append(inputs, i)
		}
	}
	var inputMask uint32
	for _, i := range inputs {
		inputMask |= 1 << uint(i)
	}

	c.mu.RLock()
	dec, ok := c.inv[inputMask]
	c.mu.RUnlock()
	if ok {
		c.ctr.invCacheHits.Add(1)
		return dec, inputs
	}
	c.ctr.invCacheMisses.Add(1)

	// Build the m×m submatrix of the systematic generator [I; A] whose
	// rows correspond to the chosen input shards, then invert it. The
	// normalized Cauchy construction guarantees invertibility for any
	// choice of m distinct rows.
	sub := newMatrix(c.m, c.m)
	for r, idx := range inputs {
		if idx < c.m {
			sub.set(r, idx, 1)
		} else {
			copy(sub.row(r), c.a.row(idx-c.m))
		}
	}
	inv, err := sub.invert()
	if err != nil {
		// Unreachable for a correctly constructed code; fail loudly.
		panic(fmt.Sprintf("ec: generator submatrix singular for mask %#x: %v", inputMask, err))
	}

	c.mu.Lock()
	c.inv[inputMask] = inv
	c.mu.Unlock()
	return inv, inputs
}

// ---------------------------------------------------------------------
// XOR codec: the degenerate k=1 case, the paper's computed-copy
// redundancy — "resiliency in the presence of a single failure (per
// group) at a low cost in terms of storage but at the expense of some
// additional computation". XOR parity is its own inverse, so one routine
// computes the parity unit and rebuilds any lost unit of the row.

type xorCodec struct {
	m   int
	ctr *counters
}

func (c *xorCodec) DataShards() int   { return c.m }
func (c *xorCodec) ParityShards() int { return 1 }
func (c *xorCodec) String() string    { return fmt.Sprintf("%d+1", c.m) }
func (c *xorCodec) Stats() Stats      { return c.ctr.snapshot() }

// xorInto xors src into dst element-wise over the overlapping prefix.
func xorInto(dst, src []byte) {
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	// Simple byte loop; the compiler vectorizes this adequately, and the
	// paper's cost model charges one instruction per byte anyway.
	for i := 0; i < n; i++ {
		dst[i] ^= src[i]
	}
}

// xorRow fills out with the XOR of shards. Shards shorter than out are
// zero-padded, and a nil (missing) shard contributes nothing.
func xorRow(out []byte, shards [][]byte) {
	clearSlice(out)
	for _, s := range shards {
		xorInto(out, s)
	}
}

// Encode XORs the m data shards into the single parity shard in place.
//
//swift:hotpath
func (c *xorCodec) Encode(shards [][]byte) error {
	if err := checkShards(shards, c.m+1, true); err != nil {
		return err
	}
	var nbytes int64
	for _, d := range shards[:c.m] {
		nbytes += int64(len(d))
	}
	xorRow(shards[c.m], shards[:c.m])
	c.ctr.encodeCalls.Add(1)
	c.ctr.encodeBytes.Add(nbytes)
	return nil
}

func (c *xorCodec) Verify(shards [][]byte) (bool, error) {
	if err := checkShards(shards, c.m+1, true); err != nil {
		return false, err
	}
	have := shards[c.m]
	want := make([]byte, len(have))
	xorRow(want, shards[:c.m])
	return bytes.Equal(have, want), nil
}

func (c *xorCodec) Reconstruct(shards [][]byte) error {
	if err := checkShards(shards, c.m+1, false); err != nil {
		return err
	}
	missingIdx := -1
	for i, s := range shards {
		if s == nil {
			if missingIdx >= 0 {
				return fmt.Errorf("%w: 2+ missing, need %d present", ErrTooFewShards, c.m)
			}
			missingIdx = i
		}
	}
	if missingIdx < 0 {
		return nil
	}
	width := rowWidth(shards)
	out := make([]byte, width)
	xorRow(out, shards)
	shards[missingIdx] = out
	c.ctr.reconstructCalls.Add(1)
	c.ctr.reconstructBytes.Add(int64(width))
	c.ctr.byMissing[1].Add(1)
	return nil
}
