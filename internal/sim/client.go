package sim

import (
	"fmt"
	"time"

	"ring/internal/client/protocol"
	"ring/internal/proto"
)

// coreDriver runs a client protocol core on the event loop: it puts
// the core's requests on the fabric, arms its timers as events, and
// hands each completed operation to done. Re-resolves ask the next
// node round-robin and do not hold up the retry.
type coreDriver struct {
	sim  *Sim
	addr string
	core *protocol.Core
	done func(now time.Duration, op *protocol.Op)
}

func newCoreDriver(s *Sim, addr string, cfg *proto.Config, p protocol.Policy, done func(time.Duration, *protocol.Op)) *coreDriver {
	d := &coreDriver{sim: s, addr: addr, core: protocol.New(cfg, p), done: done}
	s.RegisterClient(addr, d.onMessage)
	return d
}

// simPolicy is the simulated clients' retry policy: re-send at once
// after a timeout, wait a quarter timeout after a retry status (an
// immediate resend to a recovering coordinator just burns attempts).
func simPolicy(timeout time.Duration, retries int) protocol.Policy {
	return protocol.Policy{
		Timeout:  timeout,
		Attempts: retries + 1,
		Backoff: func(_ int, timedOut bool) time.Duration {
			if timedOut {
				return 0
			}
			return timeout / 4
		},
	}
}

func (d *coreDriver) send(now time.Duration, op *protocol.Op, s protocol.Send) {
	d.sim.Send(d.addr, s.To, s.Msg)
	if s.Timer.After > 0 {
		d.arm(now, op, s.Timer)
	}
}

func (d *coreDriver) arm(now time.Duration, op *protocol.Op, t protocol.Timer) {
	d.sim.At(now+t.After, func(tnow time.Duration) { d.step(tnow, op, d.core.Expire(op, t)) })
}

func (d *coreDriver) step(now time.Duration, op *protocol.Op, st protocol.Step) {
	switch st.Action {
	case protocol.Arm:
		d.arm(now, op, st.Timer)
	case protocol.Retry:
		if s, ok := d.core.Resolve(); ok {
			d.sim.Send(d.addr, s.To, s.Msg)
		}
		d.send(now, op, d.core.Attempt(op))
	case protocol.Finish:
		d.done(now, op)
	}
}

func (d *coreDriver) onMessage(now time.Duration, _ string, msg proto.Message) {
	if op, st := d.core.Reply(msg); op != nil {
		d.step(now, op, st)
	}
}

// Client is a simulated Ring client: it routes by key hash like the
// real client and correlates replies, but lives inside the event loop.
// Each request is one attempt with no timeout: the first reply, of any
// status, completes it.
type Client struct {
	sim *Sim
	d   *coreDriver
}

// NewClient registers a simulated client on the fabric.
func NewClient(s *Sim, name string, cfg *proto.Config) *Client {
	return &Client{sim: s, d: newCoreDriver(s, "client/"+name, cfg, protocol.Policy{Attempts: 1},
		func(now time.Duration, op *protocol.Op) {
			if reply, _ := op.Result(); reply != nil {
				op.Ctx.(func(time.Duration, proto.Message))(now, reply)
			}
		})}
}

// Addr returns the client's fabric address.
func (c *Client) Addr() string { return c.d.addr }

// SetConfig updates the client's routing view (e.g. after simulated
// failover).
func (c *Client) SetConfig(cfg *proto.Config) { c.d.core.SetConfig(cfg) }

// do sends a request at virtual time `at` and invokes done with the
// measured latency when a reply of type T arrives.
func do[T proto.Message](c *Client, at time.Duration, key string, build func(proto.ReqID) proto.Message, done func(time.Duration, T)) {
	c.sim.At(at, func(now time.Duration) {
		op := &protocol.Op{Target: protocol.Key(key), Build: build, Ctx: func(end time.Duration, m proto.Message) {
			if r, ok := m.(T); ok && done != nil {
				done(end-now, r)
			}
		}}
		c.d.send(now, op, c.d.core.Attempt(op))
	})
}

// PutAt schedules a put.
func (c *Client) PutAt(at time.Duration, key string, value []byte, mg proto.MemgestID, done func(time.Duration, *proto.PutReply)) {
	do(c, at, key, func(req proto.ReqID) proto.Message {
		return &proto.Put{Req: req, Key: key, Value: value, Memgest: mg}
	}, done)
}

// GetAt schedules a get.
func (c *Client) GetAt(at time.Duration, key string, done func(time.Duration, *proto.GetReply)) {
	do(c, at, key, func(req proto.ReqID) proto.Message {
		return &proto.Get{Req: req, Key: key}
	}, done)
}

// MoveAt schedules a move.
func (c *Client) MoveAt(at time.Duration, key string, mg proto.MemgestID, done func(time.Duration, *proto.MoveReply)) {
	do(c, at, key, func(req proto.ReqID) proto.Message {
		return &proto.Move{Req: req, Key: key, Memgest: mg}
	}, done)
}

// DeleteAt schedules a delete.
func (c *Client) DeleteAt(at time.Duration, key string, done func(time.Duration, *proto.DeleteReply)) {
	do(c, at, key, func(req proto.ReqID) proto.Message {
		return &proto.Delete{Req: req, Key: key}
	}, done)
}

// runUntil performs one scheduled request synchronously: it starts it
// now and steps the simulation until its reply arrives. Only valid
// when no other traffic is pending.
func runUntil[T proto.Message](c *Client, what, key string, issue func(done func(time.Duration, T))) (lat time.Duration, got T, err error) {
	ok := false
	issue(func(l time.Duration, r T) { lat, got, ok = l, r, true })
	for !ok && c.sim.Step() {
	}
	if !ok {
		err = fmt.Errorf("sim: %s %q got no reply", what, key)
	}
	return lat, got, err
}

// PutSync performs a put and runs the simulation until it completes,
// returning the latency. Only valid when no other traffic is pending.
func (c *Client) PutSync(key string, value []byte, mg proto.MemgestID) (time.Duration, *proto.PutReply, error) {
	return runUntil(c, "put", key, func(done func(time.Duration, *proto.PutReply)) {
		c.PutAt(c.sim.Now(), key, value, mg, done)
	})
}

// GetSync performs a get synchronously.
func (c *Client) GetSync(key string) (time.Duration, *proto.GetReply, error) {
	return runUntil(c, "get", key, func(done func(time.Duration, *proto.GetReply)) {
		c.GetAt(c.sim.Now(), key, done)
	})
}

// MoveSync performs a move synchronously.
func (c *Client) MoveSync(key string, mg proto.MemgestID) (time.Duration, *proto.MoveReply, error) {
	return runUntil(c, "move", key, func(done func(time.Duration, *proto.MoveReply)) {
		c.MoveAt(c.sim.Now(), key, mg, done)
	})
}
