// Package ec implements Swift's general erasure coding: systematic
// Reed–Solomon codes over GF(2^8) with m data and k parity units per
// stripe row, and the single-XOR computed copy (k=1) that is the paper's
// "resiliency in the presence of a single failure (per group)". The
// Reed–Solomon codes generalize it to tolerate any k simultaneous
// failures, which is what production-scale arrays standardize on once
// rebuild windows make double failures routine.
//
// The package is deliberately clock-free and allocation-light: all hot
// kernels operate on caller-provided byte slices using precomputed
// lookup tables, and the only synchronization is a read-mostly cache of
// decode-matrix inversions.
package ec

// GF(2^8) arithmetic with the primitive polynomial x^8+x^4+x^3+x^2+1
// (0x11d), the conventional choice for storage Reed–Solomon codes.
//
// Three table families are precomputed at init:
//
//   - gfExp/gfLog: exponential and logarithm tables for scalar mul/div
//     and matrix algebra (code construction, inversion).
//   - gfMul: full 256×256 product table for scalar hot paths.
//   - mulTableLow/mulTableHigh: split low/high-nibble tables. For a
//     fixed coefficient c, any byte b satisfies
//     c·b = c·(b&0x0f) ⊕ c·(b&0xf0), so the byte-slice kernels do two
//     16-entry lookups and one XOR per byte from tables that fit in L1.

const gfPoly = 0x11d

var (
	gfExp [512]byte // gfExp[i] = α^i, doubled so mul can skip a mod
	gfLog [256]byte // gfLog[α^i] = i; gfLog[0] unused

	gfMul [256][256]byte // gfMul[a][b] = a·b

	mulTableLow  [256][16]byte // mulTableLow[c][n]  = c·n        (low nibble)
	mulTableHigh [256][16]byte // mulTableHigh[c][n] = c·(n<<4)   (high nibble)
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= gfPoly
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
	for a := 1; a < 256; a++ {
		la := int(gfLog[a])
		for b := 1; b < 256; b++ {
			gfMul[a][b] = gfExp[la+int(gfLog[b])]
		}
	}
	for c := 0; c < 256; c++ {
		for n := 0; n < 16; n++ {
			mulTableLow[c][n] = gfMul[c][n]
			mulTableHigh[c][n] = gfMul[c][n<<4]
		}
	}
}

// gfMulByte returns the GF(2^8) product a·b.
func gfMulByte(a, b byte) byte { return gfMul[a][b] }

// gfDiv returns a/b. Division by zero panics: the code construction
// guarantees every divisor is a nonzero Cauchy element, so a zero here
// is a programming error, not an input condition.
func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("ec: division by zero in GF(2^8)")
	}
	if a == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+255-int(gfLog[b])]
}

// gfInv returns the multiplicative inverse of a.
func gfInv(a byte) byte { return gfDiv(1, a) }

// mulSlice sets out = c·in element-wise over the overlapping prefix.
// c==0 zeroes out; c==1 copies.
func mulSlice(c byte, in, out []byte) {
	n := len(in)
	if len(out) < n {
		n = len(out)
	}
	switch c {
	case 0:
		clearSlice(out[:n])
		return
	case 1:
		copy(out[:n], in[:n])
		return
	}
	low := &mulTableLow[c]
	high := &mulTableHigh[c]
	in = in[:n]
	out = out[:n] // bounds-check elimination: equal-length reslices
	for i := range in {
		b := in[i]
		out[i] = low[b&0x0f] ^ high[b>>4]
	}
}

// mulAddSlice xors c·in into out element-wise over the overlapping
// prefix. c==0 is a no-op; c==1 degenerates to plain XOR, which is the
// whole k=1 parity path.
func mulAddSlice(c byte, in, out []byte) {
	n := len(in)
	if len(out) < n {
		n = len(out)
	}
	switch c {
	case 0:
		return
	case 1:
		in = in[:n]
		out = out[:n]
		for i := range in {
			out[i] ^= in[i]
		}
		return
	}
	low := &mulTableLow[c]
	high := &mulTableHigh[c]
	in = in[:n]
	out = out[:n]
	for i := range in {
		b := in[i]
		out[i] ^= low[b&0x0f] ^ high[b>>4]
	}
}

// clearSlice zeroes b (the compiler recognizes this loop as memclr).
func clearSlice(b []byte) {
	for i := range b {
		b[i] = 0
	}
}
