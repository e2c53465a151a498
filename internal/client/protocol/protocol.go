// Package protocol is the Ring client's request state machine, with no
// I/O: key, leader and shard routing (Section 5.1: i = h(key) mod s),
// request ids and reply correlation, and the timeout + re-resolve retry
// of Section 5.5. Replies, timer expiries and send failures go in;
// requests, timers to arm, "re-resolve now" and completions come out.
// It never reads a clock, so the live client (internal/client) drives
// it with goroutines and runtime timers and the simulator's clients
// (internal/sim) from the event loop, to the same decisions.
//
// An operation keeps every attempt's request id live until it
// completes: a reply to any attempt completes it, since each attempt's
// effect falls inside the operation's window.
package protocol

import (
	"errors"
	"time"

	"ring/internal/core"
	"ring/internal/proto"
	"ring/internal/store"
)

// ErrTimeout is the result of an operation whose attempts all timed out.
var ErrTimeout = errors.New("client: request timed out")

var (
	errNoConfig = errors.New("client: no configuration")
	errFinished = errors.New("client: request already finished")
)

// Policy holds the retry values that differ between drivers.
type Policy struct {
	// Timeout bounds one attempt; 0 arms no timer (the attempt waits
	// for its reply indefinitely).
	Timeout time.Duration
	// Attempts caps the attempts of one operation, the first included
	// (< 1 means 1). An operation past the cap is abandoned.
	Attempts int
	// Backoff is the pause before retry n (n >= 1) after the previous
	// attempt failed; timedOut tells an expired attempt from a retry
	// status or a local send failure. Nil or 0 retries at once.
	Backoff func(n int, timedOut bool) time.Duration
}

type targetKind uint8

const (
	toKey targetKind = iota
	toLeader
	toShard
	toAddr
)

// Target says where each attempt of an operation is routed, resolved
// against the configuration current when the attempt is sent.
type Target struct {
	kind  targetKind
	key   string // the key, or the fixed address of an Addr target
	shard int
}

// Key routes to the coordinator of the key's shard.
func Key(key string) Target { return Target{kind: toKey, key: key} }

// Leader routes to the cluster leader (management and resize requests).
func Leader() Target { return Target{kind: toLeader} }

// Shard routes to the coordinator of one shard.
func Shard(i int) Target { return Target{kind: toShard, shard: i} }

// Addr routes to a fixed fabric address (a bootstrap or resolve
// target). It gets one attempt: re-resolving cannot re-route it.
func Addr(addr string) Target { return Target{kind: toAddr, key: addr} }

// Op is one logical request, possibly spanning several attempts.
type Op struct {
	Target Target
	// Build makes the request message of one attempt.
	Build func(proto.ReqID) proto.Message
	// Ctx is the driver's handle on the operation; the core never
	// reads it.
	Ctx any

	attempt int
	reqs    []proto.ReqID
	buf     [2]proto.ReqID
	done    bool
	reply   proto.Message
	err     error
}

// Result is the outcome of a completed operation: the terminal reply,
// or, when it was abandoned, the last failure's error (ErrTimeout, a
// retry status, a send error) with the reply that carried it, if any.
func (op *Op) Result() (proto.Message, error) { return op.reply, op.err }

// Attempt is the number of the current attempt, from 0.
func (op *Op) Attempt() int { return op.attempt }

// Send is one request the driver must put on the wire.
type Send struct {
	To  string
	Msg proto.Message
	// Timer is the attempt's reply deadline (none when After is 0).
	Timer Timer
	// Err means nothing is sent: routing failed, or a reply to an
	// earlier attempt finished the op while the driver re-resolved. The
	// driver hands Err back through Fail, which decides.
	Err error
}

// Timer is a timer the driver must arm; when it fires the driver hands
// it back through Expire.
type Timer struct {
	After   time.Duration
	Attempt int
	// Backoff marks the pause before a retry; otherwise the timer is
	// an attempt's reply deadline.
	Backoff bool
}

// Action is what a driver must do after an event.
type Action uint8

const (
	// None: nothing (a stale timer, or a reply for no live operation).
	None Action = iota
	// Arm: arm Step.Timer.
	Arm
	// Retry: re-resolve the configuration, then send Attempt(op).
	Retry
	// Finish: the operation completed; read op.Result.
	Finish
)

// Step is the core's decision after one event.
type Step struct {
	Action Action
	Timer  Timer
}

// Core holds one client's protocol state: its view of the
// configuration, the request-id counter, and every live attempt. It is
// not safe for concurrent use; a multi-threaded driver serializes
// calls.
type Core struct {
	policy   Policy
	cfg      *proto.Config
	nextReq  proto.ReqID
	ops      map[proto.ReqID]*Op
	resolves map[proto.ReqID]bool
	rr       int
}

// New returns a core routing by cfg (nil until a resolve answers).
func New(cfg *proto.Config, p Policy) *Core {
	return &Core{
		policy:   p,
		cfg:      cfg,
		nextReq:  1,
		ops:      make(map[proto.ReqID]*Op),
		resolves: make(map[proto.ReqID]bool),
	}
}

// Config returns the current routing view.
func (c *Core) Config() *proto.Config { return c.cfg }

// SetConfig replaces the routing view outright.
func (c *Core) SetConfig(cfg *proto.Config) { c.cfg = cfg }

// Attempt routes op's current attempt (the first one starts it) by
// the current configuration, under a fresh request id.
func (c *Core) Attempt(op *Op) Send {
	to, err := c.route(op.Target)
	if op.done {
		err = errFinished
	}
	if err != nil {
		return Send{Err: err}
	}
	if op.reqs == nil {
		op.reqs = op.buf[:0]
	}
	req := c.nextReq
	c.nextReq++
	op.reqs = append(op.reqs, req)
	c.ops[req] = op
	return Send{To: to, Msg: op.Build(req), Timer: Timer{After: c.policy.Timeout, Attempt: op.attempt}}
}

// Resolve asks the next node of the configuration (which must be set),
// round-robin, for its view; the reply is adopted through Reply. ok is
// false when the configuration names no node.
func (c *Core) Resolve() (s Send, ok bool) {
	ids := c.cfg.AllNodes()
	if len(ids) == 0 {
		return Send{}, false
	}
	target := ids[c.rr%len(ids)]
	c.rr++
	req := c.nextReq
	c.nextReq++
	c.resolves[req] = true
	return Send{To: core.NodeAddr(target), Msg: &proto.Resolve{Req: req}}, true
}

// Reply correlates one incoming message. It returns the operation it
// belongs to (nil for a resolve reply, a late reply to a completed
// operation, or anything that is not a reply) and what to do next. A
// terminal status completes the operation; a retry status backs off
// the current attempt.
func (c *Core) Reply(m proto.Message) (*Op, Step) {
	req, st, ok := replyOf(m)
	if !ok {
		return nil, Step{}
	}
	rr, isResolve := m.(*proto.ResolveReply)
	if c.resolves[req] {
		delete(c.resolves, req)
		if isResolve {
			c.adopt(rr.Config)
		}
		return nil, Step{}
	}
	op := c.ops[req]
	if op == nil {
		return nil, Step{}
	}
	if isResolve {
		c.adopt(rr.Config)
	}
	if !retryStatus(st) {
		c.complete(op, m, nil)
		return op, Step{Action: Finish}
	}
	op.reply, op.err = m, st.Err()
	return op, c.fail(op, false)
}

// Expire handles a fired timer of op.
func (c *Core) Expire(op *Op, t Timer) Step {
	if op.done || t.Attempt != op.attempt {
		return Step{}
	}
	if t.Backoff {
		return c.retry(op)
	}
	op.reply, op.err = nil, ErrTimeout
	return c.fail(op, true)
}

// Fail reports that op's current attempt could not be sent.
func (c *Core) Fail(op *Op, err error) Step {
	if op.done {
		return Step{}
	}
	op.reply, op.err = nil, err
	return c.fail(op, false)
}

// fail schedules the retry after a failed attempt.
func (c *Core) fail(op *Op, timedOut bool) Step {
	if c.policy.Backoff != nil {
		if d := c.policy.Backoff(op.attempt+1, timedOut); d > 0 {
			return Step{Action: Arm, Timer: Timer{After: d, Attempt: op.attempt, Backoff: true}}
		}
	}
	return c.retry(op)
}

// retry moves op to its next attempt, or abandons it past the cap with
// the last failure as its result.
func (c *Core) retry(op *Op) Step {
	op.attempt++
	if op.attempt >= c.policy.Attempts || op.Target.kind == toAddr {
		c.complete(op, op.reply, op.err)
		return Step{Action: Finish}
	}
	return Step{Action: Retry}
}

func (c *Core) complete(op *Op, reply proto.Message, err error) {
	op.done, op.reply, op.err = true, reply, err
	for _, r := range op.reqs {
		delete(c.ops, r)
	}
}

// adopt installs a resolved configuration unless it is older than the
// current view.
func (c *Core) adopt(cfg *proto.Config) {
	if cfg != nil && (c.cfg == nil || cfg.Epoch >= c.cfg.Epoch) {
		c.cfg = cfg.Clone()
	}
}

func (c *Core) route(t Target) (string, error) {
	if t.kind == toAddr {
		return t.key, nil
	}
	cfg := c.cfg
	if cfg == nil || cfg.Shards() == 0 {
		return "", errNoConfig
	}
	switch t.kind {
	case toKey:
		return core.NodeAddr(cfg.CoordinatorOf(store.KeyHash(t.key))), nil
	case toShard:
		if t.shard >= len(cfg.Coords) {
			return "", errNoConfig
		}
		return core.NodeAddr(cfg.Coords[t.shard]), nil
	}
	return core.NodeAddr(cfg.Leader), nil
}

// retryStatus reports whether a status warrants re-resolving and
// retrying; any other status is the operation's answer.
func retryStatus(s proto.Status) bool {
	return s == proto.StWrongNode || s == proto.StRetry || s == proto.StUnavailable
}

// ReplyReq extracts the request id a reply answers.
func ReplyReq(m proto.Message) (proto.ReqID, bool) {
	req, _, ok := replyOf(m)
	return req, ok
}

// Status is a reply's status; a resolve reply always succeeds.
func Status(m proto.Message) proto.Status {
	_, st, _ := replyOf(m)
	return st
}

func replyOf(m proto.Message) (proto.ReqID, proto.Status, bool) {
	switch r := m.(type) {
	case *proto.PutReply:
		return r.Req, r.Status, true
	case *proto.GetReply:
		return r.Req, r.Status, true
	case *proto.DeleteReply:
		return r.Req, r.Status, true
	case *proto.MoveReply:
		return r.Req, r.Status, true
	case *proto.MemgestReply:
		return r.Req, r.Status, true
	case *proto.ConvertReply:
		return r.Req, r.Status, true
	case *proto.ResizeReply:
		return r.Req, r.Status, true
	case *proto.ResolveReply:
		return r.Req, proto.StOK, true
	}
	return 0, proto.StOK, false
}
