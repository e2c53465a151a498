package store

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestBlockHeapWriteDeltaMatchesByteLoop checks Write's word-wide delta
// against the byte-at-a-time rule (delta = old XOR new, then store new)
// on odd lengths at odd offsets, including the last byte of a block,
// and that no byte outside the extent changes. ParityRegion.ApplyDelta
// is checked against the same rule on the same table.
func TestBlockHeapWriteDeltaMatchesByteLoop(t *testing.T) {
	const blockSize = 4096
	rng := rand.New(rand.NewSource(7))
	cases := []struct{ off, n uint32 }{
		{0, 1}, {1, 7}, {3, 15}, {5, 17}, {7, 33}, {13, 63},
		{31, 1031}, {1, 4093}, {4095, 1}, {2049, 2047},
	}
	for _, c := range cases {
		h := NewBlockHeap(4, 2, blockSize)
		old := make([]byte, blockSize)
		rng.Read(old)
		h.SetBlockData(5, old)
		ext := Extent{Block: 5, Off: c.off, Len: c.n}
		if err := h.Reserve(ext); err != nil {
			t.Fatal(err)
		}
		val := make([]byte, c.n)
		rng.Read(val)

		wantDelta := make([]byte, c.n)
		wantBlock := append([]byte(nil), old...)
		for i := range val {
			wantDelta[i] = wantBlock[int(c.off)+i] ^ val[i]
			wantBlock[int(c.off)+i] = val[i]
		}
		delta := h.Write(ext, val)
		if !bytes.Equal(delta, wantDelta) {
			t.Fatalf("off %d len %d: delta differs from the byte loop", c.off, c.n)
		}
		if !bytes.Equal(h.BlockData(5), wantBlock) {
			t.Fatalf("off %d len %d: block contents differ from the byte loop", c.off, c.n)
		}

		p := NewParityRegion(1, blockSize)
		parity := make([]byte, blockSize)
		rng.Read(parity)
		copy(p.Block(0), parity)
		for i := range delta {
			parity[int(c.off)+i] ^= delta[i]
		}
		p.ApplyDelta(0, int(c.off), delta)
		if !bytes.Equal(p.Block(0), parity) {
			t.Fatalf("off %d len %d: parity differs from the byte loop", c.off, c.n)
		}
	}
}
