// Command perfbench is the repository benchmark. Each invocation boots
// fresh five-process ringd clusters over loopback TCP, drives one
// workload closed loop from a single generator process that checks
// every read, and prints its metrics, the last line being one JSON
// object:
//
//	bash perfbench/run.sh --workload mixed-schemes --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics: it boots the
// cluster three times (setup_s is the median boot-and-preload time)
// and measures a third of --seconds on each, pooling the samples of
// the three windows. With --trace 1 it reports the per-layer metrics:
// one untraced window scraped before and after through /debug/ringvars
// and /proc, the coder and durable-log probes, and a separate traced
// window whose put spans are joined to the coordinators' trace rings.
// --workload all runs every workload in turn.
//
// metrics.json lists every workload and metric with its source, layer
// and the end-to-end metric it should move; NOTES.md records how the
// bounds were set.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"ring/internal/client"
	"ring/internal/core"
	"ring/internal/metrics"
	"ring/internal/proto"
	"ring/internal/status"
	"ring/internal/transport"
)

// workload is one traffic mix against the cluster.
type workload struct {
	name    string
	getPct  int  // share of foreground ops that are gets, in percent
	durable bool // per-node -data-dir with -fsync interval
	churn   bool // background ConvertPrefix loop over the key space
	allRep  bool // every key on rep3 instead of the rep3/srs3.2 hash split
}

var workloads = []workload{
	{name: "mixed-schemes", getPct: 50},
	{name: "durable-writes", getPct: 10, durable: true},
	{name: "convert-churn", getPct: 50, churn: true, allRep: true},
}

const (
	// e2eWindows fresh clusters per end-to-end run; setup_s is the
	// median over them, the other metrics pool their windows.
	e2eWindows = 3
	warmup     = 500 * time.Millisecond
	// deadline bounds a whole invocation; past it the clusters are torn
	// down and the run fails.
	deadline = 170 * time.Second
	// replogProbe is how long the durable-log probe runs.
	replogProbe = time.Second
)

//go:embed metrics.json
var registryJSON []byte

type registry struct {
	Metrics []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
		Kind string `json:"kind"`
	} `json:"metrics"`
}

// value is one reported metric.
type value struct {
	v       float64
	unit    string
	samples int64
}

type report struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]value
	notes     []string
}

func (r *report) set(name string, v float64, unit string, samples int64) {
	r.metrics[name] = value{v, unit, samples}
}

func main() {
	wl := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	secs := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics and the traced run")
	ringd := flag.String("ringd", "", "path of the ringd binary under test")
	work := flag.String("work", ".bench_build", "directory for cluster state and span files")
	flag.Parse()

	if *ringd == "" || *secs < 3 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -ringd, -seconds >= 3 and -trace 0|1")
		os.Exit(2)
	}
	var run []workload
	for _, w := range workloads {
		if *wl == "all" || *wl == w.name {
			run = append(run, w)
		}
	}
	if len(run) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wl)
		os.Exit(2)
	}
	var reg registry
	if err := json.Unmarshal(registryJSON, &reg); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: metrics.json: %v\n", err)
		os.Exit(2)
	}
	abs, err := filepath.Abs(*ringd)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		killAll()
		fmt.Fprintf(os.Stderr, "perfbench: %v: clusters torn down\n", s)
		os.Exit(1)
	}()
	time.AfterFunc(time.Duration(len(run))*deadline, func() {
		killAll()
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %s; clusters torn down\n", deadline)
		os.Exit(1)
	})

	code := 0
	for _, w := range run {
		b := &bench{w: w, seed: *seed, secs: float64(*secs), ringd: abs, work: *work}
		r := &report{correct: true, metrics: make(map[string]value)}
		if *trace == 0 {
			err = b.endToEnd(r)
		} else {
			err = b.perLayer(r)
		}
		if err == nil {
			err = checkRegistry(reg, r, *trace)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			killAll()
			os.Exit(1)
		}
		printReport(w.name, r)
		if !r.correct {
			code = 1
		}
	}
	os.Exit(code)
}

// checkRegistry makes sure the run reports exactly the metrics that
// metrics.json lists for its mode, in the listed units.
func checkRegistry(reg registry, r *report, trace int) error {
	kind := "end_to_end"
	if trace == 1 {
		kind = "per_layer"
	}
	want := 0
	for _, m := range reg.Metrics {
		if m.Kind != kind {
			continue
		}
		want++
		got, ok := r.metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s listed in metrics.json was not measured", m.Name)
		}
		if got.unit != m.Unit {
			return fmt.Errorf("metric %s measured in %s, listed in %s", m.Name, got.unit, m.Unit)
		}
	}
	if want != len(r.metrics) {
		return fmt.Errorf("run measured %d metrics, metrics.json lists %d", len(r.metrics), want)
	}
	return nil
}

func printReport(name string, r *report) {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	type jv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]jv, len(names))
	fmt.Printf("== %s\n", name)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Printf("%-34s %14.4f %-6s n=%d\n", n, m.v, m.unit, m.samples)
		out[n] = jv{m.v, m.unit}
	}
	for _, n := range r.notes {
		fmt.Printf("note: %s\n", n)
	}
	line, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]jv `json:"metrics"`
	}{r.correct, r.attempted, r.failed, out})
	fmt.Println(string(line))
}

// bench runs one workload.
type bench struct {
	w     workload
	seed  int64
	secs  float64
	ringd string
	work  string
	runs  int
}

// snapshot is everything scraped at one window boundary.
type snapshot struct {
	rv     []status.Ringvars
	procs  []procSample
	self   procSample
	client clientCounters
}

// clientCounters are the generator's own client.* counters.
type clientCounters struct{ retries, timeouts, resolves uint64 }

func scrape(c *cluster) (snapshot, error) {
	var s snapshot
	for i, a := range c.http {
		rv, err := status.FetchRingvars(a)
		if err != nil {
			return s, fmt.Errorf("scraping node %d: %w", i, err)
		}
		s.rv = append(s.rv, rv)
	}
	for _, pid := range c.pids() {
		p, err := readProc(pid)
		if err != nil {
			return s, err
		}
		s.procs = append(s.procs, p)
	}
	self, err := readProc(os.Getpid())
	if err != nil {
		return s, err
	}
	s.self = self
	m := &client.Metrics
	s.client = clientCounters{m.Retries.Load(), m.Timeouts.Load(), m.Resolves.Load()}
	return s, nil
}

// windowResult is one measured window on one fresh cluster.
type windowResult struct {
	setup          time.Duration
	secs           float64
	gets, puts     []int64
	attempted      int64
	failed         int64
	before, after  snapshot
	passes         []churnPass
	from, to       time.Time
	dataBytes      int64
	spans          []span
	trace          *tracePoller
	violations     int64
	violationNotes []string
}

func (w *windowResult) ops() float64 { return float64(len(w.gets) + len(w.puts)) }

// window boots a fresh cluster, preloads the key space, runs the
// closed loop for secs after a warm-up, and tears the cluster down.
func (b *bench) window(secs float64, traced bool) (*windowResult, error) {
	b.runs++
	dir := filepath.Join(b.work, "runs", fmt.Sprintf("%d-%d", os.Getpid(), b.runs))
	defer os.RemoveAll(dir)
	res := &windowResult{}

	// A boot can fail when another process takes one of the reserved
	// ports before ringd binds it; that attempt does not count.
	var (
		c   *cluster
		t0  time.Time
		err error
	)
	for attempt := 0; attempt < 3; attempt++ {
		t0 = time.Now()
		if c, err = bootCluster(b.ringd, dir, b.w.durable); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*windowResult, error) {
		if terr := c.teardown(); terr != nil {
			err = fmt.Errorf("%v; %v", err, terr)
		}
		return nil, err
	}
	fabric := transport.NewTCPFabric()
	bootstrap := make([]string, numNodes)
	for i, a := range c.fabric {
		bootstrap[i] = core.NodeAddr(proto.NodeID(i))
		fabric.Map(bootstrap[i], a)
	}
	cl, err := client.Dial(fabric, bootstrap, client.Options{Timeout: 3 * time.Second, Retries: 4})
	if err != nil {
		return fail(fmt.Errorf("dialing the cluster: %w", err))
	}
	defer cl.Close()
	g := newGenerator(cl, b.w.allRep, b.w.getPct, b.seed, traced)
	if err := g.preload(); err != nil {
		return fail(err)
	}
	res.setup = time.Since(t0)

	var ch *churn
	if b.w.churn {
		ch = startChurn(cl)
	}
	if traced {
		res.trace = startTracePoller(c.http[:numCoords])
	}
	g.start()
	time.Sleep(warmup)
	res.before, err = scrape(c)
	if err == nil {
		res.from = time.Now()
		g.recording.Store(true)
		time.Sleep(time.Duration(secs * float64(time.Second)))
		g.recording.Store(false)
		res.to = time.Now()
		res.after, err = scrape(c)
	}
	g.halt()
	if ch != nil {
		res.passes = ch.halt()
	}
	if res.trace != nil {
		// Puts that completed at the window's end reach the rings just
		// before their replies; one more poll round picks them up.
		time.Sleep(20 * time.Millisecond)
		res.trace.halt()
	}
	if err != nil {
		return fail(err)
	}
	res.secs = res.to.Sub(res.from).Seconds()
	sweepFailed := g.sweep()
	res.gets, res.puts, res.attempted, res.failed, res.spans = g.collect()
	res.attempted += numKeys
	res.failed += int64(sweepFailed)
	res.violations = g.violations.Load()
	res.violationNotes = g.violMsgs

	if err := c.teardown(); err != nil {
		return nil, err
	}
	if b.w.durable {
		for i := 0; i < numNodes; i++ {
			n, err := dirBytes(filepath.Join(dir, fmt.Sprintf("node-%d", i)))
			if err != nil {
				return nil, err
			}
			res.dataBytes += n
		}
	}
	return res, nil
}

func (b *bench) account(r *report, w *windowResult) {
	if len(w.passes) > 0 {
		var durs []float64
		failed := 0
		for _, p := range w.passes {
			durs = append(durs, p.end.Sub(p.start).Seconds())
			if p.err != nil {
				failed++
			}
		}
		r.notes = append(r.notes, fmt.Sprintf("churn: %d ConvertPrefix passes, median %.3f s, %d failed",
			len(w.passes), median(durs), failed))
	}
	r.attempted += w.attempted
	r.failed += w.failed
	if w.violations > 0 {
		r.correct = false
		r.notes = append(r.notes, fmt.Sprintf("%d failed read checks", w.violations))
		r.notes = append(r.notes, w.violationNotes...)
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// serverCPU is the utime+stime in µs of ringd nodes lo..hi-1 over a
// window.
func serverCPU(w *windowResult, lo, hi int) float64 {
	us := 0.0
	for i := lo; i < hi; i++ {
		us += w.after.procs[i].cpuMicros() - w.before.procs[i].cpuMicros()
	}
	return us
}

// endToEnd measures the user-visible metrics over e2eWindows windows,
// each on a fresh cluster: latency percentiles and rates are taken
// over all samples of the run, setup_s is the median boot.
func (b *bench) endToEnd(r *report) error {
	var (
		setup      []float64
		gets, puts []int64
		secs, cpu  float64
	)
	for i := 0; i < e2eWindows; i++ {
		w, err := b.window(b.secs/e2eWindows, false)
		if err != nil {
			return err
		}
		b.account(r, w)
		setup = append(setup, w.setup.Seconds())
		gets = append(gets, w.gets...)
		puts = append(puts, w.puts...)
		secs += w.secs
		cpu += serverCPU(w, 0, numNodes)
		r.notes = append(r.notes, fmt.Sprintf("window %d: setup %.3f s, %.0f ops/s, %.1f us server CPU per op",
			i+1, w.setup.Seconds(), w.ops()/w.secs, serverCPU(w, 0, numNodes)/w.ops()))
	}
	sort.Slice(gets, func(i, j int) bool { return gets[i] < gets[j] })
	sort.Slice(puts, func(i, j int) bool { return puts[i] < puts[j] })
	ng, np := int64(len(gets)), int64(len(puts))
	r.set("setup_s", median(setup), "s", e2eWindows)
	r.set("throughput_ops", float64(ng+np)/secs, "ops/s", ng+np)
	r.set("get_p50_us", quantileUS(gets, 0.50), "us", ng)
	r.set("get_p99_us", quantileUS(gets, 0.99), "us", ng)
	r.set("put_p50_us", quantileUS(puts, 0.50), "us", np)
	r.set("put_p99_us", quantileUS(puts, 0.99), "us", np)
	r.set("server_cpu_us_per_op", cpu/float64(ng+np), "us", ng+np)
	return nil
}

// histDelta subtracts two cumulative histogram snapshots.
func histDelta(after, before metrics.HistSnapshot) metrics.HistSnapshot {
	prev := make(map[uint64]uint64, len(before.Buckets))
	for _, bk := range before.Buckets {
		prev[bk.Le] = bk.Count
	}
	out := metrics.HistSnapshot{Count: after.Count - before.Count, SumNS: after.SumNS - before.SumNS}
	for _, bk := range after.Buckets {
		if n := bk.Count - prev[bk.Le]; n > 0 {
			out.Buckets = append(out.Buckets, metrics.HistBucket{Le: bk.Le, Count: n})
		}
	}
	return out
}

func procFloat(rv status.Ringvars, name string) float64 {
	if v, ok := rv.Process[name].(float64); ok {
		return v
	}
	return 0
}

// perLayer measures the layer metrics on one untraced window, runs the
// probes, then runs the traced window for the put breakdown.
func (b *bench) perLayer(r *report) error {
	w, err := b.window(b.secs, false)
	if err != nil {
		return err
	}
	b.account(r, w)
	ops := w.ops()
	puts := float64(len(w.puts))
	n := int64(ops)
	before, after := w.before, w.after

	// Ringvars deltas summed over the nodes.
	var (
		events, msgsOut, pktsOut             float64
		pktsSent, bytesSent, sendErrs, drops float64
		srvGets, parked, parity, parityBytes float64
		srsPuts, aborted, replanned          float64
		inboxHW                              int64
		commitRep, commitSRS                 metrics.HistSnapshot
	)
	for i := range after.rv {
		a, p := after.rv[i], before.rv[i]
		events += float64(a.Node.Events - p.Node.Events)
		msgsOut += float64(a.Node.MsgsOut - p.Node.MsgsOut)
		pktsOut += float64(a.Node.PacketsOut - p.Node.PacketsOut)
		pktsSent += procFloat(a, "transport.packets_sent") - procFloat(p, "transport.packets_sent")
		bytesSent += procFloat(a, "transport.bytes_sent") - procFloat(p, "transport.bytes_sent")
		sendErrs += procFloat(a, "transport.send_errors") - procFloat(p, "transport.send_errors")
		drops += procFloat(a, "transport.drops") - procFloat(p, "transport.drops")
		srvGets += float64(a.Node.Stats.Gets - p.Node.Stats.Gets)
		parked += float64(a.Node.Stats.ParkedGets - p.Node.Stats.ParkedGets)
		parity += float64(a.Node.Stats.ParityUpdates - p.Node.Stats.ParityUpdates)
		parityBytes += float64(a.Node.Stats.BytesParityXor - p.Node.Stats.BytesParityXor)
		srsPuts += float64(a.Node.Memgests[mgSRS].Puts - p.Node.Memgests[mgSRS].Puts)
		aborted += float64(a.Node.ConvertsAborted - p.Node.ConvertsAborted)
		replanned += float64(a.Node.ConvertsRepl - p.Node.ConvertsRepl)
		if a.Node.InboxHighWater > inboxHW {
			inboxHW = a.Node.InboxHighWater
		}
		commitRep = commitRep.Merge(histDelta(a.Node.CommitRep, p.Node.CommitRep))
		commitSRS = commitSRS.Merge(histDelta(a.Node.CommitSRS, p.Node.CommitSRS))
	}
	per := func(x, base float64) float64 {
		if base == 0 {
			return 0
		}
		return x / base
	}
	histUS := func(h metrics.HistSnapshot, q float64) float64 { return float64(h.Quantile(q)) / 1e3 }

	// client
	selfCPU := after.self.cpuMicros() - before.self.cpuMicros()
	r.set("client.cpu_us_per_op", per(selfCPU, ops), "us", n)
	r.set("client.retries_per_kop", per(float64(after.client.retries-before.client.retries)*1000, ops), "count", n)
	r.set("client.timeouts", float64(after.client.timeouts-before.client.timeouts), "count", n)
	r.set("client.resolves", float64(after.client.resolves-before.client.resolves), "count", n)
	r.set("failed_frac", per(float64(w.failed), float64(w.attempted)), "frac", w.attempted)

	// transport
	r.set("transport.packets_per_op", per(pktsSent, ops), "count", n)
	r.set("transport.bytes_per_op", per(bytesSent, ops), "B", n)
	r.set("transport.msgs_per_packet", per(msgsOut, pktsOut), "count", int64(pktsOut))
	r.set("transport.send_errors", sendErrs, "count", n)
	r.set("transport.drops", drops, "count", n)

	// core
	var ctxsw, syscw, wchar, rss float64
	for i := range after.procs {
		ctxsw += float64(after.procs[i].ctxsw - before.procs[i].ctxsw)
		syscw += float64(after.procs[i].syscw - before.procs[i].syscw)
		wchar += float64(after.procs[i].wchar - before.procs[i].wchar)
		rss += float64(after.procs[i].rssBytes)
	}
	r.set("core.events_per_op", per(events, ops), "count", n)
	r.set("core.inbox_high_water", float64(inboxHW), "count", numNodes)
	r.set("core.commit_rep_p50_us", histUS(commitRep, 0.50), "us", int64(commitRep.Count))
	r.set("core.commit_rep_p99_us", histUS(commitRep, 0.99), "us", int64(commitRep.Count))
	r.set("core.commit_srs_p50_us", histUS(commitSRS, 0.50), "us", int64(commitSRS.Count))
	r.set("core.commit_srs_p99_us", histUS(commitSRS, 0.99), "us", int64(commitSRS.Count))
	r.set("core.coord_cpu_us_per_op", per(serverCPU(w, 0, numCoords), ops), "us", n)
	r.set("core.redundant_cpu_us_per_op", per(serverCPU(w, numCoords, numNodes), ops), "us", n)
	r.set("core.ctxsw_per_op", per(ctxsw, ops), "count", n)
	r.set("core.parked_gets_per_get", per(parked, srvGets), "count", int64(srvGets))

	// convert churn: attempted = the whole key space per pass.
	converted, attempted := 0.0, 0.0
	for _, p := range w.passes {
		converted += float64(p.converted)
		attempted += numKeys
	}
	r.set("convert_keys_per_s", keysIn(w.passes, w.from, w.to)/w.secs, "1/s", int64(len(w.passes)))
	r.set("core.convert_success_frac", per(converted, attempted), "frac", int64(attempted))
	r.set("core.converts_aborted", aborted, "count", int64(len(w.passes)))
	r.set("core.converts_replanned", replanned, "count", int64(len(w.passes)))

	// srs / rs / gf
	r.set("srs.parity_updates_per_put", per(parity, srsPuts), "count", int64(srsPuts))
	r.set("srs.parity_bytes_per_user_byte", per(parityBytes, srsPuts*valueSize), "B/B", int64(srsPuts))
	cr := probeCoder(b.seed)
	r.set("rs.parity_delta_us", cr.parityDeltaUS, "us", 21)
	r.set("gf.mulslicexor_gbps", cr.mulSliceXorGBs, "GB/s", 21)
	r.set("gf.xorslice_gbps", cr.xorSliceGBs, "GB/s", 21)

	// replog / wal / bitcask
	rl, err := probeReplog(filepath.Join(b.work, "runs", fmt.Sprintf("%d-replog", os.Getpid())), replogProbe, b.seed)
	if err != nil {
		return err
	}
	r.set("replog.append_commit_us", rl.appendCommitUS, "us", int64(rl.ops))
	r.set("replog.sync_us", rl.syncUS, "us", int64(rl.ops))
	r.set("replog.records_per_sync", rl.recordsPerSync, "count", int64(rl.ops))
	r.set("replog.write_syscalls_per_put", per(syscw, puts), "count", int64(puts))
	r.set("replog.disk_bytes_per_user_byte", per(wchar, puts*valueSize), "B/B", int64(puts))
	live := float64(numKeys * valueSize)
	r.set("bitcask.dir_bytes_per_live_byte", float64(w.dataBytes)/live, "B/B", numKeys)

	// store
	r.set("store.rss_bytes_per_live_byte", rss/live, "B/B", numKeys)

	// traced run
	tw, err := b.window(b.secs, true)
	if err != nil {
		return err
	}
	b.account(r, tw)
	bd, child := joinSpans(tw.spans, tw.trace)
	path := filepath.Join(b.work, "spans", fmt.Sprintf("%s-seed%d.csv", b.w.name, b.seed))
	if err := writeSpans(path, tw.spans, child); err != nil {
		return err
	}
	r.notes = append(r.notes, fmt.Sprintf("traced run: %d spans written to %s", len(tw.spans), path))
	untracedTput := ops / w.secs
	untracedP50 := quantileUS(w.puts, 0.5)
	r.set("trace.coord_commit_us", bd.coordUS, "us", int64(bd.joined))
	r.set("transport.outside_coord_us", bd.outsideUS, "us", int64(bd.joined))
	r.set("trace.put_p50_us", bd.putP50US, "us", int64(bd.puts))
	r.set("trace.join_coverage", per(float64(bd.joined), float64(bd.puts)), "frac", int64(bd.puts))
	r.set("trace.lost_entries", float64(bd.lostEntries), "count", bd.seenEntries)
	r.set("trace.overhead_throughput_frac", 1-per(tw.ops()/tw.secs, untracedTput), "frac", int64(tw.ops()))
	r.set("trace.overhead_put_p50_frac", per(bd.putP50US, untracedP50)-1, "frac", int64(bd.puts))
	return nil
}
