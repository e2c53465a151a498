package sim

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// chaosLanes are the three chaos lanes ringchaos runs: the default
// fault mix, -durable and -elasticity.
var chaosLanes = []struct {
	name             string
	durable, elastic bool
}{
	{"default", false, false},
	{"durable", true, false},
	{"elasticity", false, true},
}

// chaosReplayLine digests one chaos run into a single line: the
// client-visible outcome (ops, abandoned, control-plane acks), the
// fault counts, and an FNV-64a hash over every field of every history
// entry. Any drift in client timing, request ids or retry decisions
// changes the hash.
func chaosReplayLine(lane string, durable, elastic bool, seed int64) string {
	r := RunChaos(ChaosRunSpec{Seed: seed, Durable: durable, Elasticity: elastic})
	h := fnv.New64a()
	for _, op := range r.History {
		fmt.Fprintf(h, "%d %d %q %d %t %d %d %d %t\n",
			op.Client, op.Kind, op.Key, op.Arg, op.Found, op.Val, op.Invoke, op.Return, op.Done)
	}
	return fmt.Sprintf("%s seed=%d verdict=%v completed=%t ops=%d abandoned=%d elastic_acked=%d elastic_abandoned=%d dropped=%d delayed=%d duplicated=%d corrupted=%d history=%016x",
		lane, seed, r.Check.Verdict, r.Completed, len(r.History), r.Abandoned,
		r.ElasticAcked, r.ElasticAbandoned,
		r.Faults.Dropped, r.Faults.Delayed, r.Faults.Duplicated, r.Faults.Corrupted, h.Sum64())
}

// TestChaosReplayGolden pins seeds 1-8 of every chaos lane to the
// digests in testdata/chaos_replay.golden. The deterministic-replay
// tests only compare a run with itself; this one compares it with the
// recorded past, so a refactor of the clients or the simulator that
// shifts one message or one timer fails here rather than in a nightly
// seed sweep. Only a change meant to alter chaos runs replaces the
// file, with the digests the failing test logs.
func TestChaosReplayGolden(t *testing.T) {
	var lines []string
	for _, l := range chaosLanes {
		for seed := int64(1); seed <= 8; seed++ {
			lines = append(lines, chaosReplayLine(l.name, l.durable, l.elastic, seed))
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "chaos_replay.golden"))
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimRight(string(want), "\n"), "\n")
	for i := range lines {
		if i >= len(wantLines) || lines[i] != wantLines[i] {
			t.Errorf("chaos replay drifted from testdata/chaos_replay.golden line %d:\n got: %s", i+1, lines[i])
		}
	}
	if len(wantLines) != len(lines) {
		t.Errorf("golden has %d lines, the run produced %d", len(wantLines), len(lines))
	}
	if t.Failed() {
		t.Logf("current digests:\n%s", strings.Join(lines, "\n"))
	}
}
