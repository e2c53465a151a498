package core

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"ring/internal/proto"
	"ring/internal/store"
	"ring/internal/testutil"
	"ring/internal/transport"
)

// This file covers bulk (prefix) conversion on the in-process cluster:
// every key converts, foreground writes survive the bulk, the per-node
// window cap holds across concurrent bulk requests, keys deleted after
// the scan are skipped, and a coordinator leaving mid-bulk answers
// StRetry so the caller can retry against the new coordinator.

// bulkSpec is a non-durable cluster with mg1 Rep(3,3) and mg2
// SRS(2,1,3). Failure detection and the window abort are effectively
// off, so a frozen redundancy node holds windows open instead of
// triggering substitutions.
func bulkSpec() ClusterSpec {
	return ClusterSpec{
		Shards: 3, Redundant: 2, Spares: 1,
		Memgests: []proto.Scheme{proto.Rep(3, 3), proto.SRS(2, 1, 3)},
		Opts: Options{
			BlockSize:      64 << 10,
			HeartbeatEvery: 20 * time.Millisecond,
			FailAfter:      10 * time.Minute,
		},
		TickEvery: 2 * time.Millisecond,
	}
}

// bulkClient keeps several requests outstanding on one endpoint:
// replies other than the one awaited are stashed for later awaits.
type bulkClient struct {
	t       *testing.T
	ep      transport.Endpoint
	stash   []proto.Message
	nextReq proto.ReqID
}

func newBulkClient(t *testing.T, cl *Cluster) *bulkClient {
	t.Helper()
	ep, err := cl.Fabric.Register("client/" + t.Name())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	return &bulkClient{t: t, ep: ep, nextReq: 1}
}

// send transmits msg built around a fresh request id and returns it.
func (c *bulkClient) send(addr string, build func(proto.ReqID) proto.Message) proto.ReqID {
	c.t.Helper()
	req := c.nextReq
	c.nextReq++
	if err := c.ep.Send(addr, proto.Encode(build(req))); err != nil {
		c.t.Fatal(err)
	}
	return req
}

// poll returns a stashed or newly arrived message that match accepts,
// waiting at most wait for it.
func (c *bulkClient) poll(wait time.Duration, match func(proto.Message) bool) proto.Message {
	c.t.Helper()
	for i, m := range c.stash {
		if match(m) {
			c.stash = append(c.stash[:i], c.stash[i+1:]...)
			return m
		}
	}
	inbox := c.ep.(transport.ChanReceiver).RecvChan()
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		select {
		case p := <-inbox:
			var got proto.Message
			_ = proto.ForEachPacked(p.Payload, func(enc []byte) error {
				m, err := proto.Decode(enc)
				if err != nil {
					return nil
				}
				if got == nil && match(m) {
					got = m
				} else {
					c.stash = append(c.stash, m)
				}
				return nil
			})
			if got != nil {
				return got
			}
		case <-timer.C:
			return nil
		}
	}
}

// await is poll with a deadline that fails the test.
func (c *bulkClient) await(what string, match func(proto.Message) bool) proto.Message {
	c.t.Helper()
	m := c.poll(20*time.Second, match)
	if m == nil {
		c.t.Fatalf("timed out waiting for %s", what)
	}
	return m
}

func convertReplyTo(req proto.ReqID) func(proto.Message) bool {
	return func(m proto.Message) bool {
		r, ok := m.(*proto.ConvertReply)
		return ok && r.Req == req
	}
}

func (c *bulkClient) put(addr, key string, value []byte) proto.Version {
	c.t.Helper()
	req := c.send(addr, func(req proto.ReqID) proto.Message { return &proto.Put{Req: req, Key: key, Value: value} })
	r := c.await("put reply", func(m proto.Message) bool {
		r, ok := m.(*proto.PutReply)
		return ok && r.Req == req
	}).(*proto.PutReply)
	if r.Status != proto.StOK {
		c.t.Fatalf("put %q: %v", key, r.Status)
	}
	return r.Version
}

func (c *bulkClient) get(addr, key string) (proto.Status, []byte) {
	c.t.Helper()
	req := c.send(addr, func(req proto.ReqID) proto.Message { return &proto.Get{Req: req, Key: key} })
	r := c.await("get reply", func(m proto.Message) bool {
		r, ok := m.(*proto.GetReply)
		return ok && r.Req == req
	}).(*proto.GetReply)
	return r.Status, r.Value
}

// startBulk sends a prefix convert to a coordinator without waiting.
func (c *bulkClient) startBulk(coord proto.NodeID, prefix string, to proto.MemgestID) proto.ReqID {
	return c.send(NodeAddr(coord), func(req proto.ReqID) proto.Message {
		return &proto.Convert{Req: req, Key: prefix, To: to, Prefix: true}
	})
}

// keysOn returns n keys with the given prefix that coord coordinates.
func keysOn(cl *Cluster, prefix string, coord proto.NodeID, n int) []string {
	var keys []string
	for i := 0; len(keys) < n; i++ {
		key := fmt.Sprintf("%s%d", prefix, i)
		if cl.Cfg.CoordinatorOf(store.KeyHash(key)) == coord {
			keys = append(keys, key)
		}
	}
	return keys
}

// bulkValue is the value preloaded under key.
func bulkValue(key string) []byte { return []byte("value-of-" + key) }

// preload puts every key with its bulkValue through its coordinator.
func (c *bulkClient) preload(cl *Cluster, keys []string) {
	c.t.Helper()
	for _, key := range keys {
		c.put(NodeAddr(cl.Cfg.CoordinatorOf(store.KeyHash(key))), key, bulkValue(key))
	}
}

// nonLeaderCoord returns a coordinator that is not the leader.
func nonLeaderCoord(t *testing.T, cl *Cluster) proto.NodeID {
	t.Helper()
	for _, id := range cl.Cfg.Coords {
		if id != cl.Cfg.Leader {
			return id
		}
	}
	t.Fatal("every coordinator is the leader")
	return proto.NilNode
}

// freeze stalls a node's event loop (Inspect holds its lock) until the
// returned release func is called; packets queue in its inbox.
func freeze(r *Runner) (release func()) {
	hold := make(chan struct{})
	frozen := make(chan struct{})
	go r.Inspect(func(*Node) {
		close(frozen)
		<-hold
	})
	<-frozen
	var once sync.Once
	return func() { once.Do(func() { close(hold) }) }
}

// windowWatch polls a node's bulk state until stopped and records the
// largest number of open transition windows and of bulk slots in use.
type windowWatch struct {
	stop     chan struct{}
	done     chan struct{}
	maxConv  int
	maxSlots int
}

func watchWindows(r *Runner) *windowWatch {
	w := &windowWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		for {
			r.Inspect(func(n *Node) {
				w.maxConv = max(w.maxConv, len(n.converting))
				w.maxSlots = max(w.maxSlots, n.bulkOpen)
			})
			select {
			case <-w.stop:
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
	}()
	return w
}

func (w *windowWatch) finish() (maxConv, maxSlots int) {
	close(w.stop)
	<-w.done
	return w.maxConv, w.maxSlots
}

// assertBulkIdle checks that a node holds no bulk state once every bulk
// answered.
func assertBulkIdle(t *testing.T, r *Runner) {
	t.Helper()
	r.Inspect(func(n *Node) {
		if len(n.bulkConverts) != 0 || len(n.bulkQueue) != 0 || n.bulkOpen != 0 {
			t.Errorf("node %d: bulk state left behind: %d bulks, %d queued, %d slots",
				n.id, len(n.bulkConverts), len(n.bulkQueue), n.bulkOpen)
		}
	})
}

// TestBulkConvertConvertsEveryKey: a bulk over N keys reports
// Converted == N, every key ends under the destination memgest with its
// value intact, and no node ever holds more than bulkWindow windows.
func TestBulkConvertConvertsEveryKey(t *testing.T) {
	cl, err := StartCluster(bulkSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	c := newBulkClient(t, cl)
	var keys []string
	for i := 0; i < 3*bulkWindow+50; i++ {
		keys = append(keys, fmt.Sprintf("every-%d", i))
	}
	c.preload(cl, keys)

	coords := map[proto.NodeID]bool{}
	for _, id := range cl.Cfg.Coords {
		coords[id] = true
	}
	watches := map[proto.NodeID]*windowWatch{}
	reqs := map[proto.NodeID]proto.ReqID{}
	for id := range coords {
		watches[id] = watchWindows(cl.Runs[id])
		reqs[id] = c.startBulk(id, "every-", 2)
	}
	total := 0
	for id, req := range reqs {
		r := c.await("bulk reply", convertReplyTo(req)).(*proto.ConvertReply)
		if r.Status != proto.StOK {
			t.Fatalf("bulk on node %d: %v", id, r.Status)
		}
		total += int(r.Converted)
	}
	if total != len(keys) {
		t.Fatalf("bulk converted %d keys, want %d", total, len(keys))
	}
	for id, w := range watches {
		if conv, slots := w.finish(); conv > bulkWindow || slots > bulkWindow {
			t.Errorf("node %d: %d windows / %d bulk slots open at once, cap %d", id, conv, slots, bulkWindow)
		}
		assertBulkIdle(t, cl.Runs[id])
	}
	for _, key := range keys {
		coord := cl.Cfg.CoordinatorOf(store.KeyHash(key))
		cl.Runs[coord].Inspect(func(n *Node) {
			if ref, ok := n.volFor(n.shardOf(key)).Highest(key); !ok || ref.Memgest != 2 {
				t.Errorf("%q: highest %+v (found %v), want memgest 2", key, ref, ok)
			}
		})
		if st, v := c.get(NodeAddr(coord), key); st != proto.StOK || !bytes.Equal(v, bulkValue(key)) {
			t.Fatalf("get %q after bulk: %v %q", key, st, v)
		}
	}
}

// TestBulkConvertConcurrentPutsSurvive runs foreground puts against keys
// of a bulk while it converts them: every put is acknowledged with a
// version above the key's previous one, and the last put of each key
// is what a read returns afterwards.
func TestBulkConvertConcurrentPutsSurvive(t *testing.T) {
	cl, err := StartCluster(bulkSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	c := newBulkClient(t, cl)
	victim := nonLeaderCoord(t, cl)
	addr := NodeAddr(victim)
	keys := keysOn(cl, "busy-", victim, 3*bulkWindow)
	c.preload(cl, keys)

	// Hold the SRS parity node for a while so the first puts land on
	// open windows (they park and replay) and on queued keys.
	release := freeze(cl.Runs[cl.Cfg.Redundant[0]])
	defer release()
	bulk := c.startBulk(victim, "busy-", 2)
	time.AfterFunc(30*time.Millisecond, release)

	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	hot := append([]string(nil), sorted[:8]...)  // launched first
	hot = append(hot, sorted[len(sorted)-8:]...) // queued behind the window
	last := map[string]proto.Version{}
	lastVal := map[string][]byte{}
	var reply *proto.ConvertReply
	for round := 0; reply == nil; round++ {
		for _, key := range hot {
			val := []byte(fmt.Sprintf("%s-round-%d", key, round))
			ver := c.put(addr, key, val)
			if ver <= last[key] {
				t.Fatalf("put %q round %d: version %d not above %d", key, round, ver, last[key])
			}
			last[key], lastVal[key] = ver, val
		}
		if m := c.poll(0, convertReplyTo(bulk)); m != nil {
			reply = m.(*proto.ConvertReply)
		}
		if round > 10000 {
			t.Fatal("bulk never answered")
		}
	}
	if reply.Status != proto.StOK || int(reply.Converted) != len(keys) {
		t.Fatalf("bulk reply %v converted %d, want OK %d", reply.Status, reply.Converted, len(keys))
	}
	for key, val := range lastVal {
		if st, got := c.get(addr, key); st != proto.StOK || !bytes.Equal(got, val) {
			t.Fatalf("get %q: %v %q, want last put %q", key, st, got, val)
		}
	}
	assertBulkIdle(t, cl.Runs[victim])
}

// TestBulkConvertWindowCapShared sends two bulk requests to one
// coordinator while the destination's parity node is frozen: together
// they fill exactly bulkWindow windows and no more, and both complete
// with their full counts once the parity node resumes.
func TestBulkConvertWindowCapShared(t *testing.T) {
	cl, err := StartCluster(bulkSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	c := newBulkClient(t, cl)
	victim := nonLeaderCoord(t, cl)
	ka := keysOn(cl, "capa-", victim, bulkWindow+40)
	kb := keysOn(cl, "capb-", victim, bulkWindow+40)
	c.preload(cl, append(append([]string(nil), ka...), kb...))

	run := cl.Runs[victim]
	watch := watchWindows(run)
	release := freeze(cl.Runs[cl.Cfg.Redundant[0]])
	defer release()
	reqA := c.startBulk(victim, "capa-", 2)
	reqB := c.startBulk(victim, "capb-", 2)
	full := testutil.Eventually(10*time.Second, time.Millisecond, func() bool {
		var conv, bulks int
		run.Inspect(func(n *Node) { conv, bulks = len(n.converting), len(n.bulkConverts) })
		return conv == bulkWindow && bulks == 2
	})
	if !full {
		t.Fatal("the two bulks never filled the window")
	}
	// Nothing settles while the parity node is frozen: the window must
	// stay exactly full.
	for i := 0; i < 20; i++ {
		run.Inspect(func(n *Node) {
			if len(n.converting) != bulkWindow || n.bulkOpen != bulkWindow {
				t.Fatalf("%d windows, %d slots with the pipeline stalled; want %d", len(n.converting), n.bulkOpen, bulkWindow)
			}
		})
		time.Sleep(time.Millisecond) //ring:sleepok sampling a stalled pipeline
	}
	release()
	for _, want := range []struct {
		req  proto.ReqID
		keys int
	}{{reqA, len(ka)}, {reqB, len(kb)}} {
		r := c.await("bulk reply", convertReplyTo(want.req)).(*proto.ConvertReply)
		if r.Status != proto.StOK || int(r.Converted) != want.keys {
			t.Fatalf("bulk reply %v converted %d, want OK %d", r.Status, r.Converted, want.keys)
		}
	}
	if conv, slots := watch.finish(); conv > bulkWindow || slots > bulkWindow {
		t.Fatalf("%d windows / %d slots open at once, cap %d", conv, slots, bulkWindow)
	}
	assertBulkIdle(t, run)
}

// TestBulkConvertSkipsDeletedKey deletes a key after the bulk scanned
// it but before its deferred launch: the key is skipped, the aggregate
// is still StOK, and Converted counts every other key.
func TestBulkConvertSkipsDeletedKey(t *testing.T) {
	cl, err := StartCluster(bulkSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	c := newBulkClient(t, cl)
	victim := nonLeaderCoord(t, cl)
	addr := NodeAddr(victim)
	keys := keysOn(cl, "gone-", victim, bulkWindow+20)
	c.preload(cl, keys)
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	doomed := sorted[len(sorted)-1] // launched last

	run := cl.Runs[victim]
	release := freeze(cl.Runs[cl.Cfg.Redundant[0]])
	defer release()
	bulk := c.startBulk(victim, "gone-", 2)
	if !testutil.Eventually(10*time.Second, time.Millisecond, func() bool {
		var conv int
		run.Inspect(func(n *Node) { conv = len(n.converting) })
		return conv == bulkWindow
	}) {
		t.Fatal("the bulk never filled the window")
	}
	// Rep(3,3) commits on the unfrozen replica, so the delete completes
	// while the bulk is stalled.
	req := c.send(addr, func(req proto.ReqID) proto.Message { return &proto.Delete{Req: req, Key: doomed} })
	if r := c.await("delete reply", func(m proto.Message) bool {
		r, ok := m.(*proto.DeleteReply)
		return ok && r.Req == req
	}).(*proto.DeleteReply); r.Status != proto.StOK {
		t.Fatalf("delete %q: %v", doomed, r.Status)
	}
	release()
	r := c.await("bulk reply", convertReplyTo(bulk)).(*proto.ConvertReply)
	if r.Status != proto.StOK || int(r.Converted) != len(keys)-1 {
		t.Fatalf("bulk reply %v converted %d, want OK %d", r.Status, r.Converted, len(keys)-1)
	}
	if st, _ := c.get(addr, doomed); st != proto.StNotFound {
		t.Fatalf("deleted key %q came back: %v", doomed, st)
	}
	assertBulkIdle(t, run)
}

// TestBulkConvertLeaveAnswersRetry removes the coordinator while its
// bulks are stalled: the open windows and every key still queued answer
// StRetry (a second bulk, queued whole behind the first, included), and
// retrying at the shard's new coordinator (what client.ConvertPrefix
// does after re-resolving) converts every key.
func TestBulkConvertLeaveAnswersRetry(t *testing.T) {
	cl, err := StartCluster(bulkSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	c := newBulkClient(t, cl)
	victim := nonLeaderCoord(t, cl)
	keys := keysOn(cl, "move-", victim, bulkWindow+40)
	queued := keysOn(cl, "wait-", victim, 20)
	c.preload(cl, append(append([]string(nil), keys...), queued...))

	run := cl.Runs[victim]
	release := freeze(cl.Runs[cl.Cfg.Redundant[0]])
	defer release()
	bulk := c.startBulk(victim, "move-", 2)
	second := c.startBulk(victim, "wait-", 2)
	if !testutil.Eventually(10*time.Second, time.Millisecond, func() bool {
		var conv, bulks int
		run.Inspect(func(n *Node) { conv, bulks = len(n.converting), len(n.bulkConverts) })
		return conv == bulkWindow && bulks == 2
	}) {
		t.Fatal("the bulks never filled the window")
	}

	leave := c.send(NodeAddr(cl.Cfg.Leader), func(req proto.ReqID) proto.Message {
		return &proto.Resize{Req: req, Op: proto.ResizeLeave, Node: victim}
	})
	var r *proto.ConvertReply
	for _, req := range []proto.ReqID{bulk, second} {
		r = c.await("bulk reply", convertReplyTo(req)).(*proto.ConvertReply)
		if r.Status != proto.StRetry || r.Converted != 0 {
			t.Fatalf("bulk on the departing coordinator answered %v (%d converted), want %v", r.Status, r.Converted, proto.StRetry)
		}
	}
	if lr := c.await("leave reply", func(m proto.Message) bool {
		r, ok := m.(*proto.ResizeReply)
		return ok && r.Req == leave
	}).(*proto.ResizeReply); lr.Status != proto.StOK {
		t.Fatalf("leave: %v", lr.Status)
	}
	release()
	assertBulkIdle(t, run)

	// Retry at the shard's current coordinator until it serves.
	var cfg *proto.Config
	cl.Runs[cl.Cfg.Leader].Inspect(func(n *Node) { cfg = n.Config().Clone() })
	coord := cfg.CoordinatorOf(store.KeyHash(keys[0]))
	if coord == victim {
		t.Fatal("shard still on the departed node")
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		req := c.startBulk(coord, "move-", 2)
		r = c.await("retried bulk reply", convertReplyTo(req)).(*proto.ConvertReply)
		if r.Status != proto.StRetry || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond) //ring:sleepok retry pacing while the substitute recovers, bounded by the deadline
	}
	if r.Status != proto.StOK || int(r.Converted) != len(keys) {
		t.Fatalf("retried bulk: %v converted %d, want OK %d", r.Status, r.Converted, len(keys))
	}
	for _, key := range keys {
		if st, v := c.get(NodeAddr(coord), key); st != proto.StOK || !bytes.Equal(v, bulkValue(key)) {
			t.Fatalf("get %q after retried bulk: %v %q", key, st, v)
		}
	}
	assertBulkIdle(t, cl.Runs[coord])
}
