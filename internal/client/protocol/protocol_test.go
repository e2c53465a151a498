package protocol

import (
	"errors"
	"testing"
	"time"

	"ring/internal/core"
	"ring/internal/proto"
	"ring/internal/store"
)

const timeout = 4 * time.Millisecond

// testConfig is a 3-shard, 2-redundant, 1-spare configuration at epoch.
func testConfig(t *testing.T, epoch proto.Epoch) *proto.Config {
	t.Helper()
	cfg, err := core.BootConfig(core.ClusterSpec{
		Shards: 3, Redundant: 2, Spares: 1,
		Memgests: []proto.Scheme{proto.Rep(3, 3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Epoch = epoch
	return cfg
}

// testPolicy is the simulator's shape: resend at once after a timeout,
// back off a quarter timeout after a retry status.
func testPolicy(attempts int) Policy {
	return Policy{
		Timeout:  timeout,
		Attempts: attempts,
		Backoff: func(_ int, timedOut bool) time.Duration {
			if timedOut {
				return 0
			}
			return timeout / 4
		},
	}
}

func putOp(key string) *Op {
	return &Op{Target: Key(key), Build: func(req proto.ReqID) proto.Message {
		return &proto.Put{Req: req, Key: key, Value: []byte("v")}
	}}
}

func reqOf(t *testing.T, s Send) proto.ReqID {
	t.Helper()
	if s.Err != nil || s.Msg == nil {
		t.Fatalf("expected a send, got %+v", s)
	}
	return s.Msg.(*proto.Put).Req
}

func TestReplyCompletesOrBacksOff(t *testing.T) {
	for _, tc := range []struct {
		status proto.Status
		retry  bool
	}{
		{proto.StOK, false},
		{proto.StNotFound, false},
		{proto.StNoMemgest, false},
		{proto.StInvalid, false},
		{proto.StWrongNode, true},
		{proto.StRetry, true},
		{proto.StUnavailable, true},
	} {
		t.Run(tc.status.String(), func(t *testing.T) {
			c := New(testConfig(t, 1), testPolicy(5))
			op := putOp("k")
			first := reqOf(t, c.Attempt(op))
			got, st := c.Reply(&proto.PutReply{Req: first, Status: tc.status})
			if got != op {
				t.Fatalf("reply not correlated to its op")
			}
			if !tc.retry {
				reply, err := op.Result()
				if st.Action != Finish || err != nil || reply.(*proto.PutReply).Status != tc.status {
					t.Fatalf("terminal status: step %+v, result %v %v", st, reply, err)
				}
				return
			}
			want := Timer{After: timeout / 4, Attempt: 0, Backoff: true}
			if st.Action != Arm || st.Timer != want {
				t.Fatalf("retry status: step %+v, want arm %+v", st, want)
			}
			if st := c.Expire(op, st.Timer); st.Action != Retry {
				t.Fatalf("backoff expiry: step %+v, want retry", st)
			}
			if next := reqOf(t, c.Attempt(op)); next == first || op.Attempt() != 1 {
				t.Fatalf("retry reused id %d (attempt %d)", next, op.Attempt())
			}
		})
	}
}

func TestTimeoutResolvesAndResendsUnderFreshID(t *testing.T) {
	c := New(testConfig(t, 1), testPolicy(5))
	op := putOp("k")
	s := c.Attempt(op)
	if s.Timer != (Timer{After: timeout}) {
		t.Fatalf("attempt timer %+v", s.Timer)
	}
	first := reqOf(t, s)
	if st := c.Expire(op, s.Timer); st.Action != Retry {
		t.Fatalf("timeout: step %+v, want retry", st)
	}
	rs, ok := c.Resolve()
	if !ok {
		t.Fatal("no resolve target")
	}
	if _, isResolve := rs.Msg.(*proto.Resolve); !isResolve {
		t.Fatalf("resolve sent %T", rs.Msg)
	}
	second := reqOf(t, c.Attempt(op))
	if second == first || second == rs.Msg.(*proto.Resolve).Req {
		t.Fatalf("resend under reused id %d (first %d)", second, first)
	}
	// The first attempt's timer is stale now.
	if st := c.Expire(op, s.Timer); st.Action != None {
		t.Fatalf("stale timer: step %+v", st)
	}
}

func TestReplyToEarlierAttemptCompletes(t *testing.T) {
	c := New(testConfig(t, 1), testPolicy(5))
	op := putOp("k")
	s := c.Attempt(op)
	first := reqOf(t, s)
	c.Expire(op, s.Timer)
	second := reqOf(t, c.Attempt(op))
	if got, st := c.Reply(&proto.PutReply{Req: first, Status: proto.StOK, Version: 7}); got != op || st.Action != Finish {
		t.Fatalf("late reply to attempt 0: op %v step %+v", got, st)
	}
	if reply, err := op.Result(); err != nil || reply.(*proto.PutReply).Version != 7 {
		t.Fatalf("result %v %v", reply, err)
	}
	// Every attempt's id dies with the op.
	if got, _ := c.Reply(&proto.PutReply{Req: second, Status: proto.StOK}); got != nil {
		t.Fatal("reply to a completed op's other attempt still correlated")
	}
	// A retry the driver prepared before the late reply sends nothing.
	late := c.Attempt(op)
	if late.Msg != nil || late.Err == nil {
		t.Fatalf("attempt of a finished op: %+v", late)
	}
	if st := c.Fail(op, late.Err); st.Action != None {
		t.Fatalf("fail of a finished op: step %+v", st)
	}
	if reply, _ := op.Result(); reply.(*proto.PutReply).Version != 7 {
		t.Fatal("finished op's result overwritten")
	}
}

func TestResolveAdoptsOnlyNewerOrEqualEpochs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		epoch proto.Epoch
		adopt bool
	}{
		{"older", 2, false},
		{"equal", 3, true},
		{"newer", 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(testConfig(t, 3), testPolicy(5))
			s, _ := c.Resolve()
			offered := testConfig(t, tc.epoch)
			offered.Leader = 4
			c.Reply(&proto.ResolveReply{Req: s.Msg.(*proto.Resolve).Req, Config: offered})
			if adopted := c.Config().Leader == 4; adopted != tc.adopt {
				t.Fatalf("epoch %d: adopted %v, want %v", tc.epoch, adopted, tc.adopt)
			}
		})
	}
	// A resolve reply nobody asked for is ignored.
	c := New(testConfig(t, 1), testPolicy(5))
	if c.Reply(&proto.ResolveReply{Req: 99, Config: testConfig(t, 9)}); c.Config().Epoch != 1 {
		t.Fatal("unsolicited resolve reply adopted")
	}
}

func TestAttemptCapGivesUpWithLastError(t *testing.T) {
	// Timeouts only: ErrTimeout.
	c := New(testConfig(t, 1), testPolicy(3))
	op := putOp("k")
	s := c.Attempt(op)
	for i := 0; i < 2; i++ {
		if st := c.Expire(op, s.Timer); st.Action != Retry {
			t.Fatalf("attempt %d: step %+v", i, st)
		}
		s = c.Attempt(op)
	}
	if st := c.Expire(op, s.Timer); st.Action != Finish {
		t.Fatalf("past the cap: step %+v", st)
	}
	if _, err := op.Result(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("abandoned with %v, want ErrTimeout", err)
	}

	// Last failure a retry status: that status, with its reply.
	c = New(testConfig(t, 1), testPolicy(2))
	op = putOp("k")
	s = c.Attempt(op)
	c.Expire(op, s.Timer)
	req := reqOf(t, c.Attempt(op))
	_, st := c.Reply(&proto.PutReply{Req: req, Status: proto.StUnavailable})
	if st := c.Expire(op, st.Timer); st.Action != Finish {
		t.Fatalf("past the cap: step %+v", st)
	}
	if reply, err := op.Result(); err == nil || reply.(*proto.PutReply).Status != proto.StUnavailable {
		t.Fatalf("abandoned with %v %v, want the unavailable reply", reply, err)
	}

	// A fixed address gets one attempt whatever the cap.
	c = New(testConfig(t, 1), testPolicy(5))
	op = &Op{Target: Addr("node/3"), Build: func(req proto.ReqID) proto.Message { return &proto.Resolve{Req: req} }}
	s = c.Attempt(op)
	if st := c.Expire(op, s.Timer); st.Action != Finish {
		t.Fatalf("fixed address after a timeout: step %+v", st)
	}
}

func TestSendFailureRetriesAfterBackoff(t *testing.T) {
	c := New(testConfig(t, 1), Policy{Timeout: timeout, Attempts: 3,
		Backoff: func(n int, _ bool) time.Duration { return time.Duration(n) * time.Millisecond }})
	op := putOp("k")
	c.Attempt(op)
	boom := errors.New("boom")
	st := c.Fail(op, boom)
	if st.Action != Arm || st.Timer != (Timer{After: time.Millisecond, Backoff: true}) {
		t.Fatalf("send failure: step %+v", st)
	}
	if st := c.Expire(op, st.Timer); st.Action != Retry {
		t.Fatalf("backoff expiry: step %+v", st)
	}
}

func TestRouting(t *testing.T) {
	cfg := testConfig(t, 1)
	c := New(cfg, testPolicy(1))
	build := func(req proto.ReqID) proto.Message { return &proto.Resolve{Req: req} }
	for _, tc := range []struct {
		name   string
		target Target
		want   string
	}{
		{"key", Key("k"), core.NodeAddr(cfg.CoordinatorOf(store.KeyHash("k")))},
		{"leader", Leader(), core.NodeAddr(cfg.Leader)},
		{"shard", Shard(2), core.NodeAddr(cfg.Coords[2])},
		{"addr", Addr("node/9"), "node/9"},
	} {
		if s := c.Attempt(&Op{Target: tc.target, Build: build}); s.To != tc.want {
			t.Errorf("%s: routed to %q, want %q", tc.name, s.To, tc.want)
		}
	}
	if s := New(nil, testPolicy(1)).Attempt(&Op{Target: Key("k"), Build: build}); s.Err == nil {
		t.Error("routing without a configuration succeeded")
	}
}
