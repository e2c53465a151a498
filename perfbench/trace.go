package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ring/internal/status"
)

// traceRing is the capacity of a node's /debug/trace ring. A poll
// keeps the entries it has not seen yet; gaps in their sequence
// numbers are entries the ring overwrote before a poll reached them.
const traceRing = 256

// joinKey identifies a committed put on its coordinator.
type joinKey struct {
	key string
	ver uint64
}

// tracePoller collects the put entries of every coordinator's trace
// ring while the traced window runs. Each entry's duration is the
// coordinator's time from the write's arrival to its commit.
type tracePoller struct {
	stop chan struct{}
	wg   sync.WaitGroup

	mu     sync.Mutex
	commit map[joinKey]time.Duration
	seen   int64 // entries of any op collected
	lost   int64 // entries overwritten before a poll reached them
}

func startTracePoller(addrs []string) *tracePoller {
	t := &tracePoller{stop: make(chan struct{}), commit: make(map[joinKey]time.Duration)}
	for _, a := range addrs {
		t.wg.Add(1)
		go t.poll(a)
	}
	return t
}

func (t *tracePoller) halt() {
	close(t.stop)
	t.wg.Wait()
}

func (t *tracePoller) poll(addr string) {
	defer t.wg.Done()
	hc := &http.Client{Timeout: 2 * time.Second}
	var last uint64
	first := true
	n := traceRing
	every := 10 * time.Millisecond
	prev := time.Now()
	for {
		select {
		case <-t.stop:
			return
		default:
		}
		now := time.Now()
		rows, err := fetchTrace(hc, addr, n)
		if err == nil && !first && n < traceRing && len(rows) > 0 && rows[0].Seq > last+1 {
			// The smaller request did not reach back to the last entry
			// seen; the ring may still hold the rest.
			rows, err = fetchTrace(hc, addr, traceRing)
		}
		if err != nil {
			time.Sleep(time.Millisecond)
			continue
		}
		fresh, lost := 0, 0
		t.mu.Lock()
		for _, r := range rows {
			if !first && r.Seq <= last {
				continue
			}
			if !first && r.Seq > last+1 {
				lost += int(r.Seq - last - 1)
			}
			first = false
			last = r.Seq
			fresh++
			t.seen++
			if r.Op == "put" && r.Status == "OK" {
				t.commit[joinKey{r.Key, r.Version}] = time.Duration(r.DurUS * float64(time.Microsecond))
			}
		}
		t.lost += int64(lost)
		t.mu.Unlock()
		// Poll often enough that half of the ring turns over between
		// polls, and ask for about three times the entries expected, so
		// the polling itself stays a small load on the node. The rate
		// counts lost entries too: a ring that wrapped means polling
		// too slowly, and the next poll goes out at once.
		if rate := float64(fresh+lost) / now.Sub(prev).Seconds(); rate > 0 {
			every = time.Duration(traceRing / 2 / rate * float64(time.Second))
		}
		if lost > 0 {
			every = 0
		}
		every = min(every, 50*time.Millisecond)
		n = min(traceRing, 3*(fresh+lost)+64)
		prev = now
		time.Sleep(every - time.Since(now))
	}
}

func fetchTrace(hc *http.Client, addr string, n int) ([]status.TraceRow, error) {
	url := fmt.Sprintf("http://%s/debug/trace?n=%d", addr, n)
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	var rows []status.TraceRow
	err = json.NewDecoder(resp.Body).Decode(&rows)
	return rows, err
}

// putBreakdown is the traced run's attribution of put latency.
type putBreakdown struct {
	puts        int     // put spans in the window
	joined      int     // put spans matched to a coordinator entry
	coordUS     float64 // median coordinator commit time of joined puts
	outsideUS   float64 // median of span time outside the coordinator
	putP50US    float64 // median put span, all puts
	lostEntries int64
	seenEntries int64
}

// joinSpans attaches each put span to its coordinator entry by (key,
// version): the entry becomes a child span lasting the coordinator's
// commit time, and the rest of the span is outside the coordinator.
func joinSpans(spans []span, t *tracePoller) (putBreakdown, []time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := putBreakdown{lostEntries: t.lost, seenEntries: t.seen}
	var coord, outside, all []int64
	child := make([]time.Duration, len(spans))
	for i, s := range spans {
		child[i] = -1
		if !s.put {
			continue
		}
		b.puts++
		all = append(all, s.end-s.start)
		d, ok := t.commit[joinKey{keyName(int(s.key)), s.ver}]
		if !ok {
			continue
		}
		b.joined++
		child[i] = d
		coord = append(coord, int64(d))
		outside = append(outside, s.end-s.start-int64(d))
	}
	for _, xs := range [][]int64{coord, outside, all} {
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	}
	b.coordUS = quantileUS(coord, 0.5)
	b.outsideUS = quantileUS(outside, 0.5)
	b.putP50US = quantileUS(all, 0.5)
	return b, child
}

// writeSpans writes every span of the traced window as CSV, with the
// joined coordinator child span (-1 when a put found no entry, or for
// gets, whose coordinator entries carry no duration).
func writeSpans(path string, spans []span, child []time.Duration) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "op_id,op,key,version,start_ns,end_ns,coord_commit_ns\n")
	for i, s := range spans {
		op := "get"
		if s.put {
			op = "put"
		}
		fmt.Fprintf(w, "%d,%s,%s,%d,%d,%d,%d\n", i, op, keyName(int(s.key)), s.ver, s.start, s.end, int64(child[i]))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
