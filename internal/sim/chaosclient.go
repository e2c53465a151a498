package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"ring/internal/client/protocol"
	"ring/internal/linearize"
	"ring/internal/proto"
)

// This file is the instrumented workload side of the chaos harness:
// closed-loop clients that issue puts/gets/deletes against the
// simulated cluster through the same protocol core as the real client
// library (so they retry and re-resolve through failures like it), and
// record every operation as an invocation/response pair for the
// linearizability checker. All randomness comes from seeded
// generators, so a run is a pure function of its seed.

// ChaosOptions parameterizes a chaos workload.
type ChaosOptions struct {
	// Seed drives key/op selection; each client derives its own rng.
	Seed int64
	// Clients is the number of concurrent closed-loop clients.
	Clients int
	// Keys is the keyspace size. Small keyspaces maximize contention,
	// which is what shakes out consistency bugs.
	Keys int
	// OpsPerClient bounds each client's operation count.
	OpsPerClient int
	// OpTimeout is how long a client waits for a reply before
	// re-resolving and retrying.
	OpTimeout time.Duration
	// OpRetries bounds attempts per operation; past it the operation
	// is abandoned and recorded as pending (it may or may not have
	// taken effect — the checker treats both as allowed).
	OpRetries int
	// ThinkTime paces each client between operations so the workload
	// spans the nemesis window instead of finishing before the first
	// fault fires. RunChaos defaults it to Active/OpsPerClient.
	ThinkTime time.Duration
	// Memgests are the memgest IDs writes are spread over. They must
	// all be reliable schemes (Rep r>=2 or SRS): Rep(1) loses data on
	// a crash by design, which the checker would rightly flag.
	Memgests []proto.MemgestID
}

func (o ChaosOptions) withDefaults() ChaosOptions {
	if o.Clients <= 0 {
		o.Clients = 4
	}
	if o.Keys <= 0 {
		o.Keys = 6
	}
	if o.OpsPerClient <= 0 {
		o.OpsPerClient = 50
	}
	if o.OpTimeout <= 0 {
		o.OpTimeout = 3 * time.Millisecond
	}
	if o.OpRetries <= 0 {
		o.OpRetries = 25
	}
	return o
}

// ChaosHarness owns the chaos clients and the shared history.
type ChaosHarness struct {
	sim     *Sim
	opts    ChaosOptions
	history []linearize.Op
	running int
	nextVal uint64
	// Abandoned counts operations that exhausted their retries.
	Abandoned int
}

// NewChaosHarness registers opts.Clients chaos clients on the fabric.
// Call Run (or Start + manual stepping) afterwards.
func NewChaosHarness(s *Sim, cfg *proto.Config, opts ChaosOptions) *ChaosHarness {
	opts = opts.withDefaults()
	if len(opts.Memgests) == 0 {
		panic("sim: chaos workload needs at least one reliable memgest")
	}
	h := &ChaosHarness{sim: s, opts: opts, nextVal: 1}
	for i := 0; i < opts.Clients; i++ {
		c := &chaosClient{
			h:    h,
			idx:  i,
			rng:  rand.New(rand.NewSource(opts.Seed*1_000_003 + int64(i)*7919)),
			left: opts.OpsPerClient,
		}
		c.d = newCoreDriver(s, fmt.Sprintf("client/chaos%d", i), cfg.Clone(),
			simPolicy(opts.OpTimeout, opts.OpRetries), c.finish)
		h.running++
		// Stagger starts so clients do not move in lockstep.
		start := time.Duration(i) * 20 * time.Microsecond
		s.At(s.Now()+start, c.startNext)
	}
	return h
}

// Run drives the simulation until every client finished or the horizon
// passed (ticks keep the event queue non-empty forever, so a horizon
// is required), then returns the recorded history. Operations still
// in flight at the horizon remain pending in the history.
func (h *ChaosHarness) Run(horizon time.Duration) []linearize.Op {
	for h.running > 0 && h.sim.Now() < horizon && h.sim.Step() {
	}
	return h.history
}

// History returns the recorded history so far.
func (h *ChaosHarness) History() []linearize.Op { return h.history }

// Done reports whether every client completed its operations.
func (h *ChaosHarness) Done() bool { return h.running == 0 }

// chaosClient is one closed-loop client: it picks each operation and
// records it in the history; the protocol core routes, retries and
// re-resolves it, and reports its completion back through finish.
type chaosClient struct {
	h    *ChaosHarness
	idx  int
	d    *coreDriver
	rng  *rand.Rand
	left int

	// histIdx is the history entry of the operation in flight.
	histIdx int
}

// scheduleNext queues the next operation after the think-time pause.
func (c *chaosClient) scheduleNext(now time.Duration) {
	if c.h.opts.ThinkTime <= 0 {
		c.startNext(now)
		return
	}
	c.h.sim.At(now+c.h.opts.ThinkTime, c.startNext)
}

func (c *chaosClient) startNext(now time.Duration) {
	if c.left == 0 {
		c.h.running--
		return
	}
	c.left--
	var kind linearize.Kind
	switch r := c.rng.Intn(10); {
	case r < 5:
		kind = linearize.KPut
	case r < 9:
		kind = linearize.KGet
	default:
		kind = linearize.KDelete
	}
	key := fmt.Sprintf("k%d", c.rng.Intn(c.h.opts.Keys))
	mg := c.h.opts.Memgests[c.rng.Intn(len(c.h.opts.Memgests))]
	var arg uint64
	if kind == linearize.KPut {
		arg = c.h.nextVal
		c.h.nextVal++
	}
	c.histIdx = len(c.h.history)
	c.h.history = append(c.h.history, linearize.Op{
		Client: c.idx,
		Kind:   kind,
		Key:    key,
		Arg:    arg,
		Invoke: now,
	})
	op := &protocol.Op{Target: protocol.Key(key), Build: func(req proto.ReqID) proto.Message {
		switch kind {
		case linearize.KPut:
			return &proto.Put{Req: req, Key: key, Value: chaosValue(arg), Memgest: mg}
		case linearize.KGet:
			return &proto.Get{Req: req, Key: key}
		}
		return &proto.Delete{Req: req, Key: key}
	}}
	c.d.send(now, op, c.d.core.Attempt(op))
}

// finish records a completed operation. An abandoned one (its retries
// exhausted) and one rejected outright stay pending in the history:
// either may or may not have taken effect.
func (c *chaosClient) finish(now time.Duration, op *protocol.Op) {
	reply, err := op.Result()
	if err != nil {
		c.h.Abandoned++
	} else if st := protocol.Status(reply); st == proto.StOK || st == proto.StNotFound {
		rec := &c.h.history[c.histIdx]
		rec.Return = now
		rec.Done = true
		if r, ok := reply.(*proto.GetReply); ok {
			rec.Found = st == proto.StOK
			if rec.Found {
				rec.Val = chaosObserved(r.Value)
			}
		}
	}
	c.scheduleNext(now)
}

// chaosValue encodes a write's value: the 8-byte argument followed by
// deterministic filler of value-dependent length, so different writes
// exercise different block layouts and a read can recover the
// argument from the first 8 bytes.
func chaosValue(arg uint64) []byte {
	n := 8 + int(arg%121)
	v := make([]byte, n)
	binary.BigEndian.PutUint64(v, arg)
	for i := 8; i < n; i++ {
		v[i] = byte(arg) + byte(i)
	}
	return v
}

// chaosObserved recovers the argument hash from a read value.
func chaosObserved(v []byte) uint64 {
	if len(v) >= 8 {
		return binary.BigEndian.Uint64(v)
	}
	f := fnv.New64a()
	f.Write(v)
	return f.Sum64()
}
