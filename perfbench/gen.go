package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ring/internal/client"
	"ring/internal/proto"
)

// Generator settings shared by every workload.
const (
	inFlight  = 16   // closed-loop workers, one request outstanding each
	numKeys   = 4096 // ≥ 100 × inFlight; 4 MiB of live values
	valueSize = 1024
	zipfTheta = 0.99

	mgRep = proto.MemgestID(1) // rep3
	mgSRS = proto.MemgestID(2) // srs3.2
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Value layout: crc32c of the rest | stream u32 | seq u64 | key length
// u16 | key | filler derived from (stream, seq). Every get checks the
// checksum and that the value belongs to the key it was read from.
const valueHeader = 4 + 4 + 8 + 2

func fillValue(buf []byte, key string, stream uint32, seq uint64) {
	binary.LittleEndian.PutUint32(buf[4:], stream)
	binary.LittleEndian.PutUint64(buf[8:], seq)
	binary.LittleEndian.PutUint16(buf[16:], uint16(len(key)))
	n := valueHeader + copy(buf[valueHeader:], key)
	x := uint64(stream)<<32 ^ seq ^ 0x9e3779b97f4a7c15
	for ; n+8 <= len(buf); n += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(buf[n:], x)
	}
	for ; n < len(buf); n++ {
		buf[n] = byte(x >> (8 * (n % 8)))
	}
	binary.LittleEndian.PutUint32(buf, crc32.Checksum(buf[4:], castagnoli))
}

func checkValue(v []byte, key string) error {
	if len(v) != valueSize {
		return fmt.Errorf("value of %s has %d bytes, want %d", key, len(v), valueSize)
	}
	if crc32.Checksum(v[4:], castagnoli) != binary.LittleEndian.Uint32(v) {
		return fmt.Errorf("value of %s fails its checksum", key)
	}
	klen := int(binary.LittleEndian.Uint16(v[16:]))
	if valueHeader+klen > len(v) || string(v[valueHeader:valueHeader+klen]) != key {
		return fmt.Errorf("value read from %s was written for another key", key)
	}
	return nil
}

// zipf draws ranks 0..n-1 with YCSB's Zipfian generator (Gray et al.).
// It lives here rather than in internal/workload so that a change to
// the program can never change the benchmark's inputs.
type zipf struct {
	n                   int
	theta, alpha, zetan float64
	eta, half           float64
}

func newZipf(n int, theta float64) *zipf {
	zeta := func(k int) float64 {
		s := 0.0
		for i := 1; i <= k; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipf{n: n, theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n)}
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/z.zetan)
	z.half = 1 + math.Pow(0.5, theta)
	return z
}

func (z *zipf) next(r *rand.Rand) int {
	u := r.Float64()
	uz := u * z.zetan
	switch {
	case uz < 1:
		return 0
	case uz < z.half:
		return 1
	}
	k := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// keyOfRank maps popularity ranks onto key indices with a fixed odd
// multiplier (a bijection modulo the power-of-two key count), so the
// hot keys are spread over shards and schemes the same way for every
// seed: the seed varies the operation sequence, not the placement.
func keyOfRank(rank int) int { return int((uint64(rank) * 2654435761) % numKeys) }

func keyName(i int) string { return fmt.Sprintf("k%04d", i) }

// placement returns the memgest of each key: all on rep3, or split
// half and half between rep3 and srs3.2 by a hash of the key.
func placement(keys []string, allRep bool) []proto.MemgestID {
	out := make([]proto.MemgestID, len(keys))
	for i, k := range keys {
		out[i] = mgRep
		if !allRep && crc32.ChecksumIEEE([]byte(k))&1 == 1 {
			out[i] = mgSRS
		}
	}
	return out
}

// span is one foreground operation as the generator saw it.
type span struct {
	start, end int64 // ns since the generator's base time
	ver        uint64
	key        int32
	put        bool
}

// worker is one closed-loop stream.
type worker struct {
	id        uint32
	rng       *rand.Rand
	seq       uint64
	buf       []byte
	gets      []int64 // latencies in ns of ops completed in the window
	puts      []int64
	attempted int64
	failed    int64
	spans     []span
}

// generator drives the closed loop and checks every read.
type generator struct {
	cl     *client.Client
	keys   []string
	mg     []proto.MemgestID
	acked  []atomic.Uint64 // highest version any put of key i had acknowledged
	z      *zipf
	getPct int
	traced bool
	base   time.Time

	recording atomic.Bool
	stop      atomic.Bool
	wg        sync.WaitGroup
	workers   []*worker

	violations atomic.Int64
	violMu     sync.Mutex
	violMsgs   []string
}

func newGenerator(cl *client.Client, allRep bool, getPct int, seed int64, traced bool) *generator {
	g := &generator{
		cl: cl, getPct: getPct, traced: traced,
		z:     newZipf(numKeys, zipfTheta),
		acked: make([]atomic.Uint64, numKeys),
		base:  time.Now(),
	}
	for i := 0; i < numKeys; i++ {
		g.keys = append(g.keys, keyName(i))
	}
	g.mg = placement(g.keys, allRep)
	for i := 0; i < inFlight; i++ {
		g.workers = append(g.workers, &worker{
			id:  uint32(i + 1),
			rng: rand.New(rand.NewSource(seed*1000003 + int64(i))),
			buf: make([]byte, valueSize),
		})
	}
	return g
}

func (g *generator) violate(format string, args ...any) {
	if g.violations.Add(1) <= 10 {
		g.violMu.Lock()
		g.violMsgs = append(g.violMsgs, fmt.Sprintf(format, args...))
		g.violMu.Unlock()
	}
}

func (g *generator) noteAcked(k int, ver proto.Version) {
	a := &g.acked[k]
	for {
		cur := a.Load()
		if uint64(ver) <= cur || a.CompareAndSwap(cur, uint64(ver)) {
			return
		}
	}
}

// checkGet applies the read checks: the key must exist (every key is
// preloaded and none is deleted), the value must be intact and belong
// to the key, and the version must not be older than the newest put
// acknowledged before the get was sent.
func (g *generator) checkGet(k int, val []byte, ver proto.Version, floor uint64, err error) (failed bool) {
	switch {
	case errors.Is(err, client.ErrNotFound):
		g.violate("get %s: preloaded key missing", g.keys[k])
	case err != nil:
		return true
	case uint64(ver) < floor:
		g.violate("get %s: version %d older than acknowledged put %d", g.keys[k], ver, floor)
	default:
		if cerr := checkValue(val, g.keys[k]); cerr != nil {
			g.violate("get %s: %v", g.keys[k], cerr)
		}
	}
	return false
}

// preload writes every key once (stream 0) through a pipeline of the
// same depth as the closed loop.
func (g *generator) preload() error {
	p := g.cl.NewPipeline(inFlight)
	futs := make([]*client.PutFuture, numKeys)
	for i, k := range g.keys {
		v := make([]byte, valueSize)
		fillValue(v, k, 0, uint64(i))
		futs[i] = p.PutIn(k, v, g.mg[i])
	}
	if err := p.Flush(); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	for i, f := range futs {
		ver, err := f.Wait()
		if err != nil {
			return fmt.Errorf("preload %s: %w", g.keys[i], err)
		}
		g.noteAcked(i, ver)
	}
	return nil
}

func (g *generator) start() {
	for _, w := range g.workers {
		g.wg.Add(1)
		go g.loop(w)
	}
}

func (g *generator) halt() {
	g.stop.Store(true)
	g.wg.Wait()
}

func (g *generator) loop(w *worker) {
	defer g.wg.Done()
	for !g.stop.Load() {
		k := keyOfRank(g.z.next(w.rng))
		key := g.keys[k]
		isGet := w.rng.Intn(100) < g.getPct
		var (
			ver    proto.Version
			failed bool
		)
		t0 := time.Now()
		if isGet {
			floor := g.acked[k].Load()
			val, v, err := g.cl.Get(key)
			ver = v
			failed = g.checkGet(k, val, v, floor, err)
		} else {
			w.seq++
			fillValue(w.buf, key, w.id, w.seq)
			v, err := g.cl.PutIn(key, w.buf, g.mg[k])
			ver = v
			if err != nil {
				failed = true
			} else {
				g.noteAcked(k, v)
			}
		}
		t1 := time.Now()
		if !g.recording.Load() {
			continue
		}
		w.attempted++
		if failed {
			w.failed++
			continue
		}
		lat := int64(t1.Sub(t0))
		if isGet {
			w.gets = append(w.gets, lat)
		} else {
			w.puts = append(w.puts, lat)
		}
		if g.traced {
			w.spans = append(w.spans, span{
				start: int64(t0.Sub(g.base)), end: int64(t1.Sub(g.base)),
				ver: uint64(ver), key: int32(k), put: !isGet,
			})
		}
	}
}

// sweep reads every key once after the load stopped and applies the
// same checks as the foreground gets.
func (g *generator) sweep() (failed int) {
	var (
		next atomic.Int64
		bad  atomic.Int64
		wg   sync.WaitGroup
	)
	for i := 0; i < inFlight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < numKeys; k = int(next.Add(1) - 1) {
				floor := g.acked[k].Load()
				val, ver, err := g.cl.Get(g.keys[k])
				if g.checkGet(k, val, ver, floor, err) {
					bad.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return int(bad.Load())
}

// collect merges the workers' window data; latencies come back sorted.
func (g *generator) collect() (gets, puts []int64, attempted, failed int64, spans []span) {
	for _, w := range g.workers {
		gets = append(gets, w.gets...)
		puts = append(puts, w.puts...)
		attempted += w.attempted
		failed += w.failed
		spans = append(spans, w.spans...)
	}
	sort.Slice(gets, func(i, j int) bool { return gets[i] < gets[j] })
	sort.Slice(puts, func(i, j int) bool { return puts[i] < puts[j] })
	return
}

// quantileUS returns the exact q-quantile of sorted ns samples in µs.
func quantileUS(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / 1e3
}

// churnPass is one ConvertPrefix call of the background churn.
type churnPass struct {
	start, end time.Time
	converted  int
	err        error
}

// churn keeps bulk-converting the whole key space, alternating the
// destination between srs3.2 and rep3, until halt is called.
type churn struct {
	stop   atomic.Bool
	done   chan struct{}
	passes []churnPass
}

func startChurn(cl *client.Client) *churn {
	c := &churn{done: make(chan struct{})}
	go func() {
		defer close(c.done)
		dsts := [2]proto.MemgestID{mgSRS, mgRep}
		for i := 0; !c.stop.Load(); i++ {
			p := churnPass{start: time.Now()}
			p.converted, p.err = cl.ConvertPrefix("", 0, dsts[i%2])
			p.end = time.Now()
			c.passes = append(c.passes, p)
			if p.err != nil {
				// A pass races the foreground puts; a failed pass is part of
				// the contention measured, and the next pass retries.
				time.Sleep(20 * time.Millisecond)
			}
		}
	}()
	return c
}

func (c *churn) halt() []churnPass {
	c.stop.Store(true)
	<-c.done
	return c.passes
}

// keysIn pro-rates each pass's converted keys over its overlap with
// the window [from, to).
func keysIn(passes []churnPass, from, to time.Time) float64 {
	total := 0.0
	for _, p := range passes {
		d := p.end.Sub(p.start)
		if d <= 0 {
			continue
		}
		lo, hi := p.start, p.end
		if lo.Before(from) {
			lo = from
		}
		if hi.After(to) {
			hi = to
		}
		if hi.After(lo) {
			total += float64(p.converted) * float64(hi.Sub(lo)) / float64(d)
		}
	}
	return total
}
