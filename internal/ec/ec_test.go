package ec

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// ---------------------------------------------------------------------
// GF(2^8) algebra.

func TestGFFieldAxioms(t *testing.T) {
	// Spot-check the multiplication table against slow carry-less
	// polynomial multiplication mod 0x11d.
	slowMul := func(a, b byte) byte {
		var p int
		ai, bi := int(a), int(b)
		for bi > 0 {
			if bi&1 != 0 {
				p ^= ai
			}
			ai <<= 1
			if ai&0x100 != 0 {
				ai ^= gfPoly
			}
			bi >>= 1
		}
		return byte(p)
	}
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if got, want := gfMulByte(byte(a), byte(b)), slowMul(byte(a), byte(b)); got != want {
				t.Fatalf("gfMul[%d][%d] = %d, want %d", a, b, got, want)
			}
		}
	}
	// Inverses: a * inv(a) == 1 for all nonzero a.
	for a := 1; a < 256; a++ {
		if got := gfMulByte(byte(a), gfInv(byte(a))); got != 1 {
			t.Fatalf("a*inv(a) = %d for a=%d", got, a)
		}
	}
	// Division round-trips multiplication.
	for a := 0; a < 256; a++ {
		for b := 1; b < 256; b++ {
			prod := gfMulByte(byte(a), byte(b))
			if got := gfDiv(prod, byte(b)); got != byte(a) {
				t.Fatalf("(%d*%d)/%d = %d, want %d", a, b, b, got, a)
			}
		}
	}
}

func TestGFNibbleTables(t *testing.T) {
	// The split-nibble kernel must agree with the full product table
	// for every (coefficient, byte) pair.
	for c := 0; c < 256; c++ {
		low, high := &mulTableLow[c], &mulTableHigh[c]
		for b := 0; b < 256; b++ {
			got := low[b&0x0f] ^ high[b>>4]
			if want := gfMul[c][b]; got != want {
				t.Fatalf("nibble mul c=%d b=%d: got %d want %d", c, b, got, want)
			}
		}
	}
}

func TestMulSliceKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := make([]byte, 257) // odd length to catch tail handling
	rng.Read(in)
	for _, c := range []byte{0, 1, 2, 29, 255} {
		out := make([]byte, len(in))
		mulSlice(c, in, out)
		acc := make([]byte, len(in))
		rng.Read(acc)
		want := make([]byte, len(in))
		copy(want, acc)
		mulAddSlice(c, in, acc)
		for i := range in {
			if out[i] != gfMul[c][in[i]] {
				t.Fatalf("mulSlice c=%d i=%d: got %d want %d", c, i, out[i], gfMul[c][in[i]])
			}
			if acc[i] != want[i]^gfMul[c][in[i]] {
				t.Fatalf("mulAddSlice c=%d i=%d: got %d want %d", c, i, acc[i], want[i]^gfMul[c][in[i]])
			}
		}
	}
}

// ---------------------------------------------------------------------
// Matrix algebra and code construction.

func TestMatrixInvert(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 1; n <= 8; n++ {
		// Random matrices are invertible with high probability; retry
		// on singular until one inverts, then check A·inv(A) = I.
		for tries := 0; ; tries++ {
			m := newMatrix(n, n)
			rng.Read(m.data)
			inv, err := m.invert()
			if err != nil {
				if tries > 50 {
					t.Fatalf("no invertible %d×%d matrix in 50 tries", n, n)
				}
				continue
			}
			prod := m.mul(inv)
			want := identity(n)
			if !bytes.Equal(prod.data, want.data) {
				t.Fatalf("m·inv(m) != I for n=%d", n)
			}
			break
		}
	}
	// Singular matrix is reported, not mis-inverted.
	s := newMatrix(2, 2)
	s.set(0, 0, 3)
	s.set(0, 1, 5)
	s.set(1, 0, 3)
	s.set(1, 1, 5)
	if _, err := s.invert(); err == nil {
		t.Fatal("inverting a singular matrix succeeded")
	}
}

func TestCodingMatrixProperties(t *testing.T) {
	for _, mk := range [][2]int{{2, 1}, {3, 1}, {4, 2}, {8, 2}, {8, 3}, {10, 4}, {16, 4}} {
		m, k := mk[0], mk[1]
		a := codingMatrix(m, k)
		// Row 0 and column 0 must be all ones: this is what makes the
		// first parity unit plain XOR and keeps the k=1 code
		// byte-identical to the XOR codec.
		for j := 0; j < m; j++ {
			if a.at(0, j) != 1 {
				t.Fatalf("m=%d k=%d: A[0][%d] = %d, want 1", m, k, j, a.at(0, j))
			}
		}
		for i := 0; i < k; i++ {
			if a.at(i, 0) != 1 {
				t.Fatalf("m=%d k=%d: A[%d][0] = %d, want 1", m, k, i, a.at(i, 0))
			}
			for j := 0; j < m; j++ {
				if a.at(i, j) == 0 {
					t.Fatalf("m=%d k=%d: A[%d][%d] = 0 (Cauchy elements are nonzero)", m, k, i, j)
				}
			}
		}
	}
}

// TestMDSProperty exhaustively verifies that every m-subset of the
// generator rows is invertible for a representative set of schemes —
// i.e. ANY k erasures are recoverable, the defining property of an MDS
// code.
func TestMDSProperty(t *testing.T) {
	for _, mk := range [][2]int{{2, 2}, {4, 2}, {5, 3}, {8, 2}, {6, 4}} {
		m, k := mk[0], mk[1]
		a := codingMatrix(m, k)
		total := m + k
		// Enumerate all subsets of size m of the m+k generator rows.
		var rowsOf func(mask uint32) matrix
		rowsOf = func(mask uint32) matrix {
			sub := newMatrix(m, m)
			r := 0
			for i := 0; i < total; i++ {
				if mask&(1<<uint(i)) == 0 {
					continue
				}
				if i < m {
					sub.set(r, i, 1)
				} else {
					copy(sub.row(r), a.row(i-m))
				}
				r++
			}
			return sub
		}
		for mask := uint32(0); mask < 1<<uint(total); mask++ {
			if popcount(mask) != m {
				continue
			}
			if _, err := rowsOf(mask).invert(); err != nil {
				t.Fatalf("m=%d k=%d: generator rows %#x singular: %v", m, k, mask, err)
			}
		}
	}
}

func popcount(x uint32) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// ---------------------------------------------------------------------
// Codec round trips.

func mkShards(t testing.TB, rng *rand.Rand, m, k, width int) [][]byte {
	t.Helper()
	shards := make([][]byte, m+k)
	for i := 0; i < m; i++ {
		shards[i] = make([]byte, width)
		rng.Read(shards[i])
	}
	for i := m; i < m+k; i++ {
		shards[i] = make([]byte, width)
	}
	return shards
}

func cloneShards(s [][]byte) [][]byte {
	out := make([][]byte, len(s))
	for i, sh := range s {
		if sh != nil {
			out[i] = append([]byte(nil), sh...)
		}
	}
	return out
}

func TestRoundTripAllErasureSets(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, mk := range [][2]int{{2, 1}, {4, 1}, {4, 2}, {8, 2}, {5, 3}, {6, 4}} {
		m, k := mk[0], mk[1]
		for _, newc := range []func(int, int) (Codec, error){New, NewRS} {
			c, err := newc(m, k)
			if err != nil {
				t.Fatal(err)
			}
			shards := mkShards(t, rng, m, k, 512)
			if err := c.Encode(shards); err != nil {
				t.Fatal(err)
			}
			if ok, err := c.Verify(shards); err != nil || !ok {
				t.Fatalf("%s: Verify after Encode: ok=%v err=%v", c, ok, err)
			}
			total := m + k
			// Every erasure set of size <= k must decode byte-identically.
			for mask := uint32(1); mask < 1<<uint(total); mask++ {
				nerased := popcount(mask)
				if nerased > k {
					continue
				}
				work := cloneShards(shards)
				for i := 0; i < total; i++ {
					if mask&(1<<uint(i)) != 0 {
						work[i] = nil
					}
				}
				if err := c.Reconstruct(work); err != nil {
					t.Fatalf("%s: Reconstruct mask %#x: %v", c, mask, err)
				}
				for i := 0; i < total; i++ {
					if !bytes.Equal(work[i], shards[i]) {
						t.Fatalf("%s: shard %d differs after reconstructing mask %#x", c, i, mask)
					}
				}
			}
			// One erasure beyond the correction power must be refused.
			work := cloneShards(shards)
			for i := 0; i <= k; i++ {
				work[i] = nil
			}
			if err := c.Reconstruct(work); err == nil && k+1 <= total-m {
				t.Fatalf("%s: reconstructing %d erasures succeeded, want error", c, k+1)
			}
		}
	}
}

func TestShortTailShards(t *testing.T) {
	// Data units at the end of a file can be shorter than the striping
	// unit; they are treated as zero-padded. Encoding with a short
	// shard must match encoding its zero-padded twin.
	rng := rand.New(rand.NewSource(4))
	for _, mk := range [][2]int{{4, 1}, {4, 2}} {
		m, k := mk[0], mk[1]
		c, err := New(m, k)
		if err != nil {
			t.Fatal(err)
		}
		full := mkShards(t, rng, m, k, 256)
		for i := 100; i < 256; i++ {
			full[m-1][i] = 0 // zero tail in the padded version
		}
		if err := c.Encode(full); err != nil {
			t.Fatal(err)
		}
		short := cloneShards(full)
		short[m-1] = short[m-1][:100]
		for p := m; p < m+k; p++ {
			short[p] = make([]byte, 256)
		}
		if err := c.Encode(short); err != nil {
			t.Fatal(err)
		}
		for p := m; p < m+k; p++ {
			if !bytes.Equal(short[p], full[p]) {
				t.Fatalf("%s: short-shard parity %d differs from zero-padded parity", c, p)
			}
		}
		if ok, _ := c.Verify(short); !ok {
			t.Fatalf("%s: Verify rejects short tail shard", c)
		}
	}
	// The XOR kernel under the k=1 codec: a short source touches only
	// the overlapping prefix, which is the zero-padding rule.
	t.Run("XORShortSource", func(t *testing.T) {
		dst := []byte{1, 2, 3, 4}
		xorInto(dst, []byte{0xff})
		if want := []byte{0xfe, 2, 3, 4}; !bytes.Equal(dst, want) {
			t.Fatalf("dst = %v, want %v", dst, want)
		}
	})
}

func TestVerifyDetectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, mk := range [][2]int{{4, 1}, {8, 2}} {
		m, k := mk[0], mk[1]
		c, err := New(m, k)
		if err != nil {
			t.Fatal(err)
		}
		// A flipped bit in a data shard and in the last parity shard
		// must each be caught.
		for _, bad := range []int{1, m + k - 1} {
			shards := mkShards(t, rng, m, k, 128)
			if err := c.Encode(shards); err != nil {
				t.Fatal(err)
			}
			shards[bad][7] ^= 0x40
			if ok, err := c.Verify(shards); err != nil || ok {
				t.Fatalf("%s: Verify accepted corrupt shard %d (ok=%v err=%v)", c, bad, ok, err)
			}
		}
	}
	// A single flipped parity bit in a small (2,1) row.
	t.Run("CheckDetectsCorruption", func(t *testing.T) {
		c, err := New(2, 1)
		if err != nil {
			t.Fatal(err)
		}
		shards := [][]byte{{1, 2, 3}, {4, 5, 6}, make([]byte, 3)}
		if err := c.Encode(shards); err != nil {
			t.Fatal(err)
		}
		shards[2][1] ^= 0x80
		if ok, err := c.Verify(shards); err != nil || ok {
			t.Fatalf("Verify accepted a corrupt parity unit (ok=%v err=%v)", ok, err)
		}
	})
}

// ---------------------------------------------------------------------
// XOR compatibility: the contract that k=1 volumes written as plain
// rotating XOR parity read back through ec.Codec without rewriting any
// stored byte.

// xorRef is an independent reference for a row's computed copy: the
// byte-wise XOR of every unit, each zero-padded to width.
func xorRef(width int, units [][]byte) []byte {
	out := make([]byte, width)
	for _, u := range units {
		for i := 0; i < len(u) && i < width; i++ {
			out[i] ^= u[i]
		}
	}
	return out
}

// padTo returns b zero-padded to n bytes.
func padTo(b []byte, n int) []byte {
	out := make([]byte, n)
	copy(out, b)
	return out
}

func TestXORCompat(t *testing.T) {
	// The reference and the codec's XOR kernel, on a hand-checked row.
	t.Run("XORBasics", func(t *testing.T) {
		want := []byte{0x0f, 0x0f, 0x00}
		if got := xorRef(3, [][]byte{{0x00, 0xff, 0xaa}, {0x0f, 0xf0, 0xaa}}); !bytes.Equal(got, want) {
			t.Fatalf("xorRef = %x, want %x", got, want)
		}
		dst := []byte{0x00, 0xff, 0xaa}
		xorInto(dst, []byte{0x0f, 0xf0, 0xaa})
		if !bytes.Equal(dst, want) {
			t.Fatalf("xorInto = %x, want %x", dst, want)
		}
	})
	// Encode, verify and rebuild every unit of rows of many widths.
	t.Run("ComputeCheckReconstruct", func(t *testing.T) {
		const width = 333
		rng := rand.New(rand.NewSource(6))
		for _, m := range []int{1, 2, 3, 4, 7, 8, 15} {
			for trial := 0; trial < 4; trial++ {
				// Uneven lengths (trial 0 full width) exercise the
				// zero-padding of short tail units.
				data := make([][]byte, m)
				for i := range data {
					n := width
					if trial > 0 {
						n = 1 + rng.Intn(width)
					}
					data[i] = make([]byte, n)
					rng.Read(data[i])
				}
				legacy := xorRef(width, data)

				for _, newc := range []func(int, int) (Codec, error){New, NewRS} {
					c, err := newc(m, 1)
					if err != nil {
						t.Fatal(err)
					}
					shards := make([][]byte, m+1)
					copy(shards, data)
					shards[m] = make([]byte, width)
					if err := c.Encode(shards); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(shards[m], legacy) {
						t.Fatalf("%T(m=%d): k=1 parity not byte-identical to plain XOR", c, m)
					}
					if ok, err := c.Verify(shards); err != nil || !ok {
						t.Fatalf("%T(m=%d): Verify rejects plain XOR parity (ok=%v err=%v)", c, m, ok, err)
					}
					// Every lost unit, data or parity, is the XOR of the
					// survivors and equals the original zero-padded.
					for lost := 0; lost <= m; lost++ {
						work := cloneShards(shards)
						work[lost] = nil
						if err := c.Reconstruct(work); err != nil {
							t.Fatal(err)
						}
						var surviving [][]byte
						for i, s := range shards {
							if i != lost {
								surviving = append(surviving, s)
							}
						}
						got := work[lost]
						if !bytes.Equal(got, xorRef(len(got), surviving)) {
							t.Fatalf("%T(m=%d): unit %d rebuild differs from the XOR of its survivors", c, m, lost)
						}
						if !bytes.Equal(padTo(got, width), padTo(shards[lost], width)) {
							t.Fatalf("%T(m=%d): unit %d rebuilt wrong", c, m, lost)
						}
					}
				}
			}
		}
	})
	// Random rows: any single lost unit, data or parity, comes back
	// exactly (zero-padded) from the survivors.
	t.Run("QuickReconstructionIdentity", func(t *testing.T) {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			m := 2 + rng.Intn(6)
			width := 1 + rng.Intn(512)
			shards := make([][]byte, m+1)
			for i := 0; i < m; i++ {
				shards[i] = make([]byte, 1+rng.Intn(width))
				rng.Read(shards[i])
			}
			shards[m] = make([]byte, width)
			c, err := New(m, 1)
			if err != nil || c.Encode(shards) != nil {
				return false
			}
			if !bytes.Equal(shards[m], xorRef(width, shards[:m])) {
				return false
			}
			lost := rng.Intn(m + 1)
			work := cloneShards(shards)
			work[lost] = nil
			if c.Reconstruct(work) != nil {
				return false
			}
			return bytes.Equal(padTo(work[lost], width), padTo(shards[lost], width))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatal(err)
		}
	})
}

// ---------------------------------------------------------------------
// Inversion cache and stats.

func TestInversionCache(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c, err := NewRS(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	shards := mkShards(t, rng, 6, 3, 64)
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	erase := func() [][]byte {
		w := cloneShards(shards)
		w[1], w[4] = nil, nil
		return w
	}
	for i := 0; i < 5; i++ {
		if err := c.Reconstruct(erase()); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.InvCacheMisses != 1 || s.InvCacheHits != 4 {
		t.Fatalf("cache stats: misses=%d hits=%d, want 1/4", s.InvCacheMisses, s.InvCacheHits)
	}
	if s.ReconstructCalls != 5 || s.ByMissing[2] != 5 {
		t.Fatalf("reconstruct stats: calls=%d byMissing[2]=%d, want 5/5", s.ReconstructCalls, s.ByMissing[2])
	}
	if s.EncodeCalls != 1 || s.EncodeBytes != 6*64 {
		t.Fatalf("encode stats: calls=%d bytes=%d, want 1/%d", s.EncodeCalls, s.EncodeBytes, 6*64)
	}
	// A different failure set computes a fresh inverse.
	w := cloneShards(shards)
	w[0], w[7] = nil, nil
	if err := c.Reconstruct(w); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().InvCacheMisses; got != 2 {
		t.Fatalf("cache misses after new failure set: %d, want 2", got)
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{EncodeCalls: 5, EncodeBytes: 100, ByMissing: []int64{0, 3, 1}}
	b := Stats{EncodeCalls: 2, EncodeBytes: 40, ByMissing: []int64{0, 1, 0}}
	d := a.Sub(b)
	if d.EncodeCalls != 3 || d.EncodeBytes != 60 || d.ByMissing[1] != 2 || d.ByMissing[2] != 1 {
		t.Fatalf("Sub: %+v", d)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 1); err == nil {
		t.Fatal("New(0,1) succeeded")
	}
	if _, err := New(4, 0); err == nil {
		t.Fatal("New(4,0) succeeded")
	}
	if _, err := New(250, 10); err == nil {
		t.Fatal("New(250,10) succeeded (m+k > 256)")
	}
	c, err := New(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, isXOR := c.(*xorCodec); !isXOR {
		t.Fatalf("New(4,1) = %T, want *xorCodec", c)
	}
	c2, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c2.String() != "4+2" {
		t.Fatalf("String() = %q, want 4+2", c2.String())
	}
}

// ---------------------------------------------------------------------
// Fuzzing: random scheme, random data, random erasure set of size <= k
// must always decode byte-identically.

func FuzzECRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(2), uint16(64), uint32(0x3))
	f.Add(int64(2), uint8(16), uint8(4), uint16(1), uint32(0xf))
	f.Add(int64(3), uint8(1), uint8(1), uint16(4096), uint32(0x1))
	f.Add(int64(4), uint8(8), uint8(3), uint16(512), uint32(0x700))
	f.Fuzz(func(t *testing.T, seed int64, mb, kb uint8, widthB uint16, eraseMask uint32) {
		m := int(mb)%16 + 1 // 1..16
		k := int(kb)%4 + 1  // 1..4
		width := int(widthB)%4096 + 1
		c, err := New(m, k)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		shards := mkShards(t, rng, m, k, width)
		if err := c.Encode(shards); err != nil {
			t.Fatal(err)
		}
		if ok, err := c.Verify(shards); err != nil || !ok {
			t.Fatalf("Verify after Encode: ok=%v err=%v", ok, err)
		}
		// Trim the erasure mask to at most k set bits within range.
		total := m + k
		work := cloneShards(shards)
		erased := 0
		for i := 0; i < total && erased < k; i++ {
			if eraseMask&(1<<uint(i)) != 0 {
				work[i] = nil
				erased++
			}
		}
		if err := c.Reconstruct(work); err != nil {
			t.Fatalf("Reconstruct (m=%d k=%d erased=%d): %v", m, k, erased, err)
		}
		for i := range work {
			if !bytes.Equal(work[i], shards[i]) {
				t.Fatalf("shard %d differs after round trip (m=%d k=%d)", i, m, k)
			}
		}
	})
}

// ---------------------------------------------------------------------
// Throughput gate and benchmarks.

// TestEncodeThroughputGate enforces the acceptance floor: the m=8,k=2
// encode kernel must sustain >= 300 MB/s of data throughput. Best of
// three one-shot runs to ride out scheduler noise on shared CI.
func TestEncodeThroughputGate(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput gate skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("throughput gate skipped under the race detector")
	}
	const (
		m, k  = 8, 2
		unit  = 64 << 10
		floor = 300.0 // MB/s over data bytes consumed
	)
	c, err := New(m, k)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	shards := mkShards(t, rng, m, k, unit)
	best := 0.0
	for run := 0; run < 3; run++ {
		res := testing.Benchmark(func(b *testing.B) {
			b.SetBytes(int64(m * unit))
			for i := 0; i < b.N; i++ {
				if err := c.Encode(shards); err != nil {
					b.Fatal(err)
				}
			}
		})
		if res.T <= 0 {
			continue
		}
		mbps := float64(res.Bytes) * float64(res.N) / res.T.Seconds() / 1e6
		if mbps > best {
			best = mbps
		}
	}
	t.Logf("encode m=%d k=%d unit=%dKiB: best %.1f MB/s", m, k, unit>>10, best)
	if best < floor {
		t.Fatalf("encode throughput %.1f MB/s below %.0f MB/s floor", best, floor)
	}
}

func benchEncode(b *testing.B, m, k, unit int) {
	c, err := New(m, k)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	shards := mkShards(b, rng, m, k, unit)
	b.SetBytes(int64(m * unit))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Encode(shards); err != nil {
			b.Fatal(err)
		}
	}
}

func benchReconstruct(b *testing.B, m, k, unit, nlost int) {
	c, err := New(m, k)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	shards := mkShards(b, rng, m, k, unit)
	if err := c.Encode(shards); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(nlost * unit))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := make([][]byte, len(shards))
		copy(work, shards)
		for j := 0; j < nlost; j++ {
			work[j] = nil
		}
		if err := c.Reconstruct(work); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	for _, cfg := range []struct{ m, k, unit int }{
		{3, 1, 4 << 10}, {3, 1, 64 << 10},
		{8, 2, 4 << 10}, {8, 2, 64 << 10}, {8, 2, 1 << 20},
		{16, 4, 64 << 10},
	} {
		b.Run(fmt.Sprintf("m%d_k%d_%dKiB", cfg.m, cfg.k, cfg.unit>>10), func(b *testing.B) {
			benchEncode(b, cfg.m, cfg.k, cfg.unit)
		})
	}
}

func BenchmarkReconstruct(b *testing.B) {
	for _, cfg := range []struct{ m, k, unit, lost int }{
		{3, 1, 64 << 10, 1},
		{8, 2, 64 << 10, 1}, {8, 2, 64 << 10, 2},
		{16, 4, 64 << 10, 4},
	} {
		b.Run(fmt.Sprintf("m%d_k%d_%dKiB_lost%d", cfg.m, cfg.k, cfg.unit>>10, cfg.lost), func(b *testing.B) {
			benchReconstruct(b, cfg.m, cfg.k, cfg.unit, cfg.lost)
		})
	}
}
