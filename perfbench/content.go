package main

import (
	"bytes"
	"math/rand/v2"
)

// blockSize is the granularity of the correctness shadow: every write
// covers whole 4 KiB blocks at 4 KiB-aligned offsets.
const blockSize = 4 << 10

// poolSize is the size of the random byte pool block contents are cut
// from. A block's content is the pool window at an offset hashed from
// (object, block, version), so no two versions of a block look alike and
// generating or checking a block is one copy or compare.
const poolSize = 8 << 20

// content produces and checks object bytes. Its pool is drawn from the
// run's seed, so the same seed writes the same bytes.
type content struct {
	pool []byte
	seed uint64
}

func newContent(seed uint64) *content {
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	pool := make([]byte, poolSize+blockSize)
	for i := 0; i+8 <= len(pool); i += 8 {
		v := r.Uint64()
		for j := 0; j < 8; j++ {
			pool[i+j] = byte(v >> (8 * j))
		}
	}
	return &content{pool: pool, seed: seed}
}

// block returns the content of block blk of object obj at version ver.
func (c *content) block(obj, blk int, ver uint32) []byte {
	h := c.seed ^ uint64(obj)*0x9e3779b97f4a7c15 ^ uint64(blk)*0xc2b2ae3d27d4eb4f ^ uint64(ver)*0x165667b19e3779f9
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	off := h % poolSize
	return c.pool[off : off+blockSize]
}

// shadow is the benchmark's record of what every object should hold: the
// version of each 4 KiB block (0 = never written). Each object is used by
// one goroutine only, so the shadow needs no locking.
type shadow struct {
	c    *content
	vers [][]uint32 // [object][block]
}

func newShadow(c *content, objects int, objBytes int64) *shadow {
	s := &shadow{c: c, vers: make([][]uint32, objects)}
	for i := range s.vers {
		s.vers[i] = make([]uint32, objBytes/blockSize)
	}
	return s
}

// fill bumps the version of the blocks of [off, off+len(buf)) of obj and
// writes their new content into buf.
func (s *shadow) fill(obj int, off int64, buf []byte) {
	v := s.vers[obj]
	for i := 0; i < len(buf); i += blockSize {
		b := int((off + int64(i)) / blockSize)
		v[b]++
		copy(buf[i:i+blockSize], s.c.block(obj, b, v[b]))
	}
}

// check reports whether buf holds the current content of [off,
// off+len(buf)) of obj. Never-written blocks must read as zeros.
func (s *shadow) check(obj int, off int64, buf []byte) bool {
	v := s.vers[obj]
	for i := 0; i < len(buf); i += blockSize {
		b := int((off + int64(i)) / blockSize)
		got := buf[i : i+blockSize]
		if v[b] == 0 {
			if !allZero(got) {
				return false
			}
			continue
		}
		if !bytes.Equal(got, s.c.block(obj, b, v[b])) {
			return false
		}
	}
	return true
}

func allZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}
