package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"ring/internal/gf"
	"ring/internal/proto"
	"ring/internal/replog"
	"ring/internal/srs"
	"ring/internal/wal"
)

// Layer probes: they call only the public functions of the coder and
// durable packages, with the workloads' value size and fsync policy,
// and time them in this process, beside the cluster run.

// medianPerCall times batches of calls and returns the median batch's
// time per call.
func medianPerCall(batches, calls int, f func()) time.Duration {
	per := make([]time.Duration, batches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			f()
		}
		per[b] = time.Since(t0) / time.Duration(calls)
	}
	sort.Slice(per, func(i, j int) bool { return per[i] < per[j] })
	return per[batches/2]
}

type coderResult struct {
	parityDeltaUS  float64 // srs.Layout.ParityDelta, 1 KiB delta, SRS(3,2,3)
	mulSliceXorGBs float64 // gf.MulSliceXor over 1 KiB
	xorSliceGBs    float64 // gf.XorSlice over 1 KiB
}

func probeCoder(seed int64) coderResult {
	r := rand.New(rand.NewSource(seed))
	l := srs.MustLayout(3, 2, 3)
	src := make([]byte, valueSize)
	dst := make([]byte, valueSize)
	r.Read(src)
	r.Read(dst)
	b := 0
	pd := medianPerCall(21, 2000, func() {
		_ = l.ParityDelta(b, src)
		b = (b + 1) % l.L
	})
	c := byte(2 + r.Intn(250))
	gf.WarmTables(c)
	mx := medianPerCall(21, 20000, func() { gf.MulSliceXor(c, src, dst) })
	x := medianPerCall(21, 20000, func() { gf.XorSlice(src, dst) })
	gbs := func(d time.Duration) float64 { return float64(valueSize) / float64(d.Nanoseconds()) }
	return coderResult{
		parityDeltaUS:  float64(pd.Nanoseconds()) / 1e3,
		mulSliceXorGBs: gbs(mx),
		xorSliceGBs:    gbs(x),
	}
}

type replogResult struct {
	appendCommitUS float64 // median Append+Commit of one 1 KiB record
	syncUS         float64 // median MaybeSync call that synced
	recordsPerSync float64 // appends per fsync (DurableStats)
	ops            int
}

// probeReplog opens a durable store on a fresh directory and runs the
// replica write path for d: Append then Commit of a 1 KiB record,
// MaybeSync at the durable workload's interval policy, and Purge of
// the version the write superseded, as a node does.
func probeReplog(dir string, d time.Duration, seed int64) (replogResult, error) {
	var res replogResult
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	db, err := replog.OpenDurable(wal.DirFS(dir), replog.DurableOptions{
		Policy: replog.FsyncInterval, Interval: fsyncInterval,
	})
	if err != nil {
		return res, fmt.Errorf("replog probe: %w", err)
	}
	r := rand.New(rand.NewSource(seed))
	value := make([]byte, valueSize)
	sk := replog.ShardKey{Memgest: mgRep, Shard: 0}
	var ac, syncs []int64
	type written struct {
		ver proto.Version
		seq proto.Seq
	}
	prev := make(map[string]written)
	start := time.Now()
	runErr := func() error {
		for i := 0; time.Since(start) < d; i++ {
			key := keyName(r.Intn(numKeys))
			ver := prev[key].ver + 1
			r.Read(value[:8])
			rec := &proto.MetaRecord{Key: key, Version: ver, Memgest: mgRep, Length: valueSize}
			seq := proto.Seq(i + 1)
			t0 := time.Now()
			if err := db.Append(sk, seq, rec, value, true); err != nil {
				return fmt.Errorf("replog probe append: %w", err)
			}
			if err := db.Commit(sk, seq, rec, value, true); err != nil {
				return fmt.Errorf("replog probe commit: %w", err)
			}
			ac = append(ac, int64(time.Since(t0)))
			if pv, ok := prev[key]; ok {
				if err := db.Purge(sk, pv.seq, key, pv.ver); err != nil {
					return fmt.Errorf("replog probe purge: %w", err)
				}
			}
			prev[key] = written{ver, seq}
			before := db.DurableStats().Syncs
			t1 := time.Now()
			if err := db.MaybeSync(t1.Sub(start)); err != nil {
				return fmt.Errorf("replog probe sync: %w", err)
			}
			if db.DurableStats().Syncs > before {
				syncs = append(syncs, int64(time.Since(t1)))
			}
			res.ops++
		}
		return nil
	}()
	st := db.DurableStats()
	if err := db.Close(); err != nil && runErr == nil {
		runErr = fmt.Errorf("replog probe close: %w", err)
	}
	if runErr != nil {
		return res, runErr
	}
	sort.Slice(ac, func(i, j int) bool { return ac[i] < ac[j] })
	sort.Slice(syncs, func(i, j int) bool { return syncs[i] < syncs[j] })
	res.appendCommitUS = quantileUS(ac, 0.5)
	res.syncUS = quantileUS(syncs, 0.5)
	if st.Syncs > 0 {
		res.recordsPerSync = float64(st.Appends) / float64(st.Syncs)
	}
	return res, nil
}
