// Package store implements the node-local storage of a Ring server:
// the block-structured data heap whose geometry feeds the SRS stripe
// math, the per-memgest metadata hashtables, and the volatile
// hashtable that maps each key to its versions across memgests
// (Section 5.1 of the paper).
package store

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"

	"ring/internal/gf"
)

// KeyHash returns the 64-bit FNV-1a hash used for key-to-shard
// mapping: shard = KeyHash(key) mod s.
func KeyHash(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// Extent locates a value inside the block heap: global logical block
// index, byte offset within the block, and length. Extents never span
// logical blocks so that every byte of a value shares one stripe
// position and one parity offset.
type Extent struct {
	Block uint32
	Off   uint32
	Len   uint32
}

// ErrHeapFull is returned when no block has room for an allocation.
var ErrHeapFull = errors.New("store: heap full")

// freeRun is a free byte range within one block.
type freeRun struct {
	off, n uint32
}

// BlockHeap is the primary-data region a coordinator owns for one SRS
// memgest: a contiguous run of logical blocks, each of fixed capacity.
// Allocation is first-fit within a block with coalescing frees; values
// never span blocks.
type BlockHeap struct {
	firstBlock uint32
	blockSize  uint32
	blocks     [][]byte
	free       [][]freeRun // free[i]: sorted disjoint free runs of block i
	used       uint64
}

// NewBlockHeap creates a heap of nblocks logical blocks, each of
// blockSize bytes, whose global indices start at firstBlock.
func NewBlockHeap(firstBlock, nblocks, blockSize int) *BlockHeap {
	if nblocks <= 0 || blockSize <= 0 {
		panic(fmt.Sprintf("store: invalid heap geometry %d x %d", nblocks, blockSize))
	}
	h := &BlockHeap{
		firstBlock: uint32(firstBlock),
		blockSize:  uint32(blockSize),
		blocks:     make([][]byte, nblocks),
		free:       make([][]freeRun, nblocks),
	}
	for i := range h.blocks {
		h.blocks[i] = make([]byte, blockSize)
		h.free[i] = []freeRun{{0, uint32(blockSize)}}
	}
	return h
}

// BlockSize returns the per-block capacity.
func (h *BlockHeap) BlockSize() int { return int(h.blockSize) }

// Blocks returns the number of logical blocks.
func (h *BlockHeap) Blocks() int { return len(h.blocks) }

// FirstBlock returns the global index of the heap's first block.
func (h *BlockHeap) FirstBlock() uint32 { return h.firstBlock }

// UsedBytes returns the number of currently allocated bytes.
func (h *BlockHeap) UsedBytes() uint64 { return h.used }

// Alloc reserves n bytes inside a single block (first fit) and returns
// the extent. It fails with ErrHeapFull when no block has a large
// enough free run, and rejects n larger than a block or zero.
func (h *BlockHeap) Alloc(n int) (Extent, error) {
	if n <= 0 {
		return Extent{}, fmt.Errorf("store: invalid allocation size %d", n)
	}
	if uint32(n) > h.blockSize {
		return Extent{}, fmt.Errorf("store: allocation %d exceeds block size %d", n, h.blockSize)
	}
	for b := range h.free {
		for i, run := range h.free[b] {
			if run.n < uint32(n) {
				continue
			}
			ext := Extent{Block: h.firstBlock + uint32(b), Off: run.off, Len: uint32(n)}
			if run.n == uint32(n) {
				h.free[b] = append(h.free[b][:i], h.free[b][i+1:]...)
			} else {
				h.free[b][i] = freeRun{run.off + uint32(n), run.n - uint32(n)}
			}
			h.used += uint64(n)
			return ext, nil
		}
	}
	return Extent{}, ErrHeapFull
}

// Free returns an extent to the free list, coalescing with adjacent
// runs. Double frees and out-of-range extents panic: they indicate
// metadata corruption, which must not be masked.
func (h *BlockHeap) Free(ext Extent) {
	b := h.localBlock(ext)
	runs := h.free[b]
	i := sort.Search(len(runs), func(i int) bool { return runs[i].off >= ext.Off })
	// Overlap checks against neighbours.
	if i > 0 && runs[i-1].off+runs[i-1].n > ext.Off {
		panic(fmt.Sprintf("store: double free or overlap at %+v", ext))
	}
	if i < len(runs) && ext.Off+ext.Len > runs[i].off {
		panic(fmt.Sprintf("store: double free or overlap at %+v", ext))
	}
	run := freeRun{ext.Off, ext.Len}
	// Coalesce with predecessor and successor.
	if i > 0 && runs[i-1].off+runs[i-1].n == run.off {
		run = freeRun{runs[i-1].off, runs[i-1].n + run.n}
		runs = append(runs[:i-1], runs[i:]...)
		i--
	}
	if i < len(runs) && run.off+run.n == runs[i].off {
		run.n += runs[i].n
		runs = append(runs[:i], runs[i+1:]...)
	}
	runs = append(runs, freeRun{})
	copy(runs[i+1:], runs[i:])
	runs[i] = run
	h.free[b] = runs
	h.used -= uint64(ext.Len)
}

// Reserve carves a specific extent out of the free space, used when a
// recovering coordinator reinstalls metadata whose extents were
// assigned by its predecessor. It fails if any byte of the extent is
// already allocated.
func (h *BlockHeap) Reserve(ext Extent) error {
	if ext.Len == 0 {
		return nil
	}
	b := h.localBlock(ext)
	runs := h.free[b]
	for i, run := range runs {
		if run.off > ext.Off || run.off+run.n < ext.Off+ext.Len {
			continue
		}
		// Split the run around the reservation.
		var repl []freeRun
		if run.off < ext.Off {
			repl = append(repl, freeRun{run.off, ext.Off - run.off})
		}
		if end := ext.Off + ext.Len; end < run.off+run.n {
			repl = append(repl, freeRun{end, run.off + run.n - end})
		}
		h.free[b] = append(runs[:i:i], append(repl, runs[i+1:]...)...)
		h.used += uint64(ext.Len)
		return nil
	}
	return fmt.Errorf("store: extent %+v overlaps an allocation", ext)
}

func (h *BlockHeap) localBlock(ext Extent) int {
	b := int(ext.Block) - int(h.firstBlock)
	if b < 0 || b >= len(h.blocks) {
		panic(fmt.Sprintf("store: extent block %d outside heap [%d,%d)", ext.Block, h.firstBlock, int(h.firstBlock)+len(h.blocks)))
	}
	if ext.Off+ext.Len > h.blockSize {
		panic(fmt.Sprintf("store: extent %+v exceeds block size %d", ext, h.blockSize))
	}
	return b
}

// Read returns a copy of the bytes at ext.
func (h *BlockHeap) Read(ext Extent) []byte {
	b := h.localBlock(ext)
	out := make([]byte, ext.Len)
	copy(out, h.blocks[b][ext.Off:ext.Off+ext.Len])
	return out
}

// ReadInPlace returns the live bytes at ext without copying; callers
// must not retain the slice across mutations.
func (h *BlockHeap) ReadInPlace(ext Extent) []byte {
	b := h.localBlock(ext)
	return h.blocks[b][ext.Off : ext.Off+ext.Len]
}

// Write stores val at ext and returns the delta (old XOR new) that
// parity nodes must apply, per the paper's update rule. The returned
// slice is freshly allocated.
func (h *BlockHeap) Write(ext Extent, val []byte) (delta []byte) {
	if uint32(len(val)) != ext.Len {
		panic(fmt.Sprintf("store: write of %d bytes into extent of %d", len(val), ext.Len))
	}
	b := h.localBlock(ext)
	dst := h.blocks[b][ext.Off : ext.Off+ext.Len]
	delta = make([]byte, len(val))
	copy(delta, dst)
	gf.XorSlice(val, delta)
	copy(dst, val)
	return delta
}

// BlockData returns the raw contents of global logical block idx; used
// when a parity node fetches stripe blocks for decoding.
func (h *BlockHeap) BlockData(idx uint32) []byte {
	return h.blocks[h.localBlock(Extent{Block: idx})]
}

// SetBlockData overwrites a whole logical block (recovery install).
func (h *BlockHeap) SetBlockData(idx uint32, data []byte) {
	b := h.localBlock(Extent{Block: idx})
	if len(data) != int(h.blockSize) {
		panic(fmt.Sprintf("store: block install of %d bytes, want %d", len(data), h.blockSize))
	}
	copy(h.blocks[b], data)
}

// FreeBytes returns the total free capacity, for balance accounting.
func (h *BlockHeap) FreeBytes() uint64 {
	return uint64(len(h.blocks))*uint64(h.blockSize) - h.used
}

// ParityRegion is the storage of one parity node for one SRS memgest:
// one parity block per stripe offset, updated by XORing in
// coefficient-multiplied deltas.
type ParityRegion struct {
	blockSize uint32
	blocks    [][]byte
}

// NewParityRegion allocates stripes parity blocks of blockSize bytes.
func NewParityRegion(stripes, blockSize int) *ParityRegion {
	if stripes <= 0 || blockSize <= 0 {
		panic(fmt.Sprintf("store: invalid parity geometry %d x %d", stripes, blockSize))
	}
	p := &ParityRegion{blockSize: uint32(blockSize), blocks: make([][]byte, stripes)}
	for i := range p.blocks {
		p.blocks[i] = make([]byte, blockSize)
	}
	return p
}

// ApplyDelta XORs delta into parity block t at byte offset off.
func (p *ParityRegion) ApplyDelta(t, off int, delta []byte) {
	if t < 0 || t >= len(p.blocks) {
		panic(fmt.Sprintf("store: parity block %d out of range [0,%d)", t, len(p.blocks)))
	}
	if off < 0 || off+len(delta) > int(p.blockSize) {
		panic(fmt.Sprintf("store: parity delta [%d,%d) exceeds block size %d", off, off+len(delta), p.blockSize))
	}
	gf.XorSlice(delta, p.blocks[t][off:off+len(delta)])
}

// Block returns the live contents of parity block t.
func (p *ParityRegion) Block(t int) []byte {
	if t < 0 || t >= len(p.blocks) {
		panic(fmt.Sprintf("store: parity block %d out of range", t))
	}
	return p.blocks[t]
}

// Stripes returns the number of parity blocks.
func (p *ParityRegion) Stripes() int { return len(p.blocks) }

// BlockSize returns the per-block capacity.
func (p *ParityRegion) BlockSize() int { return int(p.blockSize) }
