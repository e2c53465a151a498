package client

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"ring/internal/core"
	"ring/internal/proto"
	"ring/internal/store"
	"ring/internal/testutil"
)

// TestConvertPrefixFollowsLeave removes a coordinator while its part of
// a ConvertPrefix is in flight: the departing node answers StRetry, and
// the client's retry re-resolves and converts the shard at its new
// coordinator, so the call still reports every key converted.
func TestConvertPrefixFollowsLeave(t *testing.T) {
	cl, err := core.StartCluster(core.ClusterSpec{
		Shards: 3, Redundant: 2, Spares: 1,
		Memgests: []proto.Scheme{proto.Rep(3, 3), proto.SRS(2, 1, 3)},
		Opts: core.Options{
			BlockSize:      16 << 10,
			HeartbeatEvery: 20 * time.Millisecond,
			// No failure detection: a frozen node stalls, it is not replaced.
			FailAfter: 10 * time.Minute,
		},
		TickEvery: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	c, err := Dial(cl.Fabric, []string{core.NodeAddr(0)}, Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Every key lives on one non-leader coordinator, so the bulk visits
	// it with the others answering at once.
	victim := cl.Cfg.Coords[1]
	var keys []string
	for i := 0; len(keys) < 200; i++ {
		key := fmt.Sprintf("fl-%d", i)
		if cl.Cfg.CoordinatorOf(store.KeyHash(key)) == victim {
			keys = append(keys, key)
			if _, err := c.Put(key, []byte("v-"+key)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Freeze the destination's parity node: the victim's windows stay
	// open until it resumes.
	hold, frozen := make(chan struct{}), make(chan struct{})
	go cl.Runs[cl.Cfg.Redundant[0]].Inspect(func(*core.Node) {
		close(frozen)
		<-hold
	})
	<-frozen
	var once sync.Once
	release := func() { once.Do(func() { close(hold) }) }
	defer release()

	type result struct {
		n   int
		err error
	}
	done := make(chan result, 1)
	go func() {
		n, err := c.ConvertPrefix("fl-", 0, 2)
		done <- result{n, err}
	}()
	if !testutil.Eventually(10*time.Second, time.Millisecond, func() bool {
		var converts uint64
		cl.Runs[victim].Inspect(func(n *core.Node) { converts = n.Stats.Converts })
		return converts > 0
	}) {
		t.Fatal("the bulk never reached the victim")
	}
	// Resume the parity node once the leader announced the leave: the
	// leave's own re-resolve asks every node, the frozen one included.
	leader := cl.Runs[cl.Cfg.Leader]
	go func() {
		testutil.Eventually(10*time.Second, time.Millisecond, func() bool {
			gone := true
			leader.Inspect(func(n *core.Node) {
				for _, id := range n.Config().AllNodes() {
					gone = gone && id != victim
				}
			})
			return gone
		})
		release()
	}()
	if _, _, err := c.ResizeLeave(victim); err != nil {
		t.Fatalf("leave: %v", err)
	}

	r := <-done
	if r.err != nil || r.n != len(keys) {
		t.Fatalf("ConvertPrefix = %d, %v; want %d, nil", r.n, r.err, len(keys))
	}
	for _, key := range keys {
		v, _, err := c.Get(key)
		if err != nil || !bytes.Equal(v, []byte("v-"+key)) {
			t.Fatalf("get %q: %q %v", key, v, err)
		}
	}
}
