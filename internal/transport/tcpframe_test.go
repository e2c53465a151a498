package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// loopbackPair returns the two ends of one loopback TCP connection.
func loopbackPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			accepted <- nil
			return
		}
		accepted <- c
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server = <-accepted
	if server == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// TestFrameRoundTripSizes writes frames of sizes around the pooled
// buffer size and far past any pooled buffer, with short and long
// sender addresses, and reads them back in order off one connection.
func TestFrameRoundTripSizes(t *testing.T) {
	w, rc := loopbackPair(t)
	type frame struct {
		from    string
		payload []byte
	}
	var frames []frame
	for i, n := range []int{0, 1, 1023, 1024, 1025, 64 << 10, 3 << 20, 7} {
		p := make([]byte, n)
		for j := range p {
			p[j] = byte(i*31 + j)
		}
		from := "node/1"
		if i%3 == 2 {
			from = strings.Repeat("long-sender-", 12) // past any inline buffer
		}
		frames = append(frames, frame{from, p})
	}
	errc := make(chan error, 1)
	go func() {
		for _, f := range frames {
			if err := writeFrame(w, f.from, f.payload); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	r := bufio.NewReaderSize(rc, 64<<10)
	last := ""
	for i, f := range frames {
		from, payload, err := readFrame(r, last)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if from != f.from || !bytes.Equal(payload, f.payload) {
			t.Fatalf("frame %d: got %q/%d bytes, want %q/%d bytes", i, from, len(payload), f.from, len(f.payload))
		}
		ReleaseBuf(payload)
		last = from
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestFrameRejectsBadLengths pins the header checks: a frame too short
// to hold its address length, a declared length past the cap, and an
// address longer than its frame are errors, not allocations.
func TestFrameRejectsBadLengths(t *testing.T) {
	for _, hdr := range [][]byte{
		{0, 0, 0, 1, 0, 0},
		{0xff, 0xff, 0xff, 0xff, 0, 0},
		{0, 0, 0, 4, 0, 9},
	} {
		r := bufio.NewReader(bytes.NewReader(append(hdr, make([]byte, 16)...)))
		if _, _, err := readFrame(r, ""); err == nil {
			t.Errorf("header %x: no error", hdr)
		}
	}
}

// TestTCPFabricInterleavedPeers has several endpoints, each with several
// goroutines sharing its one connection, send frames of mixed sizes
// (some far past any pooled buffer) to one receiver at once. Every frame
// must arrive whole, from the right sender, and in send order per
// goroutine: concurrent frame writes on one connection never interleave.
func TestTCPFabricInterleavedPeers(t *testing.T) {
	const senders, goroutines, perG = 3, 2, 40
	f := NewTCPFabric()
	f.Map("dst", "127.0.0.1:0")
	dst, err := f.Register("dst")
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	f.Map("dst", BoundAddr(dst))
	var eps []Endpoint
	for s := 0; s < senders; s++ {
		name := fmt.Sprintf("src/%d", s)
		f.Map(name, "127.0.0.1:0")
		ep, err := f.Register(name)
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		eps = append(eps, ep)
	}

	// payload: [sender][goroutine][seq u32][crc u32][filler].
	build := func(s, g, seq int) []byte {
		n := 16 + (seq*7919)%4096
		if seq%9 == 0 {
			n = 512<<10 + seq
		}
		p := append(AcquireBuf(), make([]byte, n)...)
		p[0], p[1] = byte(s), byte(g)
		binary.BigEndian.PutUint32(p[2:], uint32(seq))
		for i := 10; i < n; i++ {
			p[i] = byte(s + g + seq + i)
		}
		binary.BigEndian.PutUint32(p[6:], crc32.ChecksumIEEE(p[10:]))
		return p
	}
	var wg sync.WaitGroup
	errc := make(chan error, senders*goroutines)
	for s := range eps {
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(s, g int) {
				defer wg.Done()
				for seq := 0; seq < perG; seq++ {
					if err := eps[s].Send("dst", build(s, g, seq)); err != nil {
						errc <- err
						return
					}
				}
			}(s, g)
		}
	}

	next := map[[2]int]int{}
	for i := 0; i < senders*goroutines*perG; i++ {
		p, err := dst.Recv()
		if err != nil {
			t.Fatal(err)
		}
		b := p.Payload
		if len(b) < 10 {
			t.Fatalf("short frame of %d bytes", len(b))
		}
		s, g, seq := int(b[0]), int(b[1]), int(binary.BigEndian.Uint32(b[2:]))
		if crc32.ChecksumIEEE(b[10:]) != binary.BigEndian.Uint32(b[6:]) {
			t.Fatalf("frame %d of src/%d goroutine %d is corrupt", seq, s, g)
		}
		if p.From != fmt.Sprintf("src/%d", s) {
			t.Fatalf("frame of src/%d arrived from %q", s, p.From)
		}
		if want := next[[2]int{s, g}]; seq != want {
			t.Fatalf("src/%d goroutine %d: frame %d arrived, want %d", s, g, seq, want)
		}
		next[[2]int{s, g}]++
		ReleaseBuf(b)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestWriteFrameConcurrentOnOneConn has several goroutines write frames
// to one connection in tight loops, the way every sender to one peer
// shares its cached connection: each frame must arrive whole.
func TestWriteFrameConcurrentOnOneConn(t *testing.T) {
	const writers, perW = 8, 2000
	w, rc := loopbackPair(t)
	// A torn frame can declare any length; the deadline turns a reader
	// stuck on one into a failure instead of a hang.
	if err := rc.SetReadDeadline(time.Now().Add(20 * time.Second)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for seq := 0; seq < perW; seq++ {
				p := make([]byte, 8+(g*131+seq)%200)
				p[0] = byte(g)
				binary.BigEndian.PutUint32(p[1:], uint32(seq))
				for i := 8; i < len(p); i++ {
					p[i] = byte(g + seq + i)
				}
				if err := writeFrame(w, fmt.Sprintf("w/%d", g), p); err != nil {
					errc <- err
					return
				}
			}
		}(g)
	}
	r := bufio.NewReaderSize(rc, 64<<10)
	next := make([]int, writers)
	from := ""
	for i := 0; i < writers*perW; i++ {
		var p []byte
		var err error
		from, p, err = readFrame(r, from)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		g, seq := int(p[0]), int(binary.BigEndian.Uint32(p[1:]))
		if g >= writers || from != fmt.Sprintf("w/%d", g) || seq != next[g] || len(p) != 8+(g*131+seq)%200 {
			t.Fatalf("frame %d: torn or out of order (from %q, writer %d, seq %d, %d bytes)", i, from, g, seq, len(p))
		}
		for j := 8; j < len(p); j++ {
			if p[j] != byte(g+seq+j) {
				t.Fatalf("frame %d: payload of writer %d seq %d corrupt", i, g, seq)
			}
		}
		next[g]++
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
