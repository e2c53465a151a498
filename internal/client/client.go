// Package client is the live Ring client. The request state machine —
// the key-to-node routing of Section 5.1 (i = h(key) mod s), request
// ids and reply correlation, and the timeout + re-resolve fallback of
// Section 5.5 — is internal/client/protocol; this package drives it
// over a transport endpoint with one receive goroutine, runtime timers,
// and a synchronous re-resolve that asks every node.
package client

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ring/internal/client/protocol"
	"ring/internal/core"
	"ring/internal/proto"
	"ring/internal/transport"
)

// Options tunes client behaviour.
type Options struct {
	// Timeout bounds one attempt of one request.
	Timeout time.Duration
	// Retries bounds re-resolve-and-retry cycles.
	Retries int
}

func (o Options) defaults() Options {
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Second
	}
	if o.Retries <= 0 {
		o.Retries = 8
	}
	return o
}

// ErrTimeout is returned when a request exhausted its retries.
var ErrTimeout = protocol.ErrTimeout

// ErrNotFound is returned by Get/Delete/Move for missing keys.
var ErrNotFound = errors.New("client: key not found")

var clientSeq atomic.Uint64

// Client is a synchronous Ring client. It is safe for concurrent use.
type Client struct {
	ep transport.Endpoint

	mu   sync.Mutex
	core *protocol.Core

	closeOnce sync.Once
	closed    chan struct{}
}

// Dial registers a client endpoint on the fabric and fetches the
// configuration from the given bootstrap node addresses.
func Dial(fabric transport.Fabric, bootstrap []string, opts Options) (*Client, error) {
	addr := fmt.Sprintf("client/%d", clientSeq.Add(1))
	ep, err := fabric.Register(addr)
	if err != nil {
		return nil, err
	}
	opts = opts.defaults()
	c := &Client{
		ep: ep,
		core: protocol.New(nil, protocol.Policy{
			Timeout:  opts.Timeout,
			Attempts: opts.Retries + 1,
			// Brief backoff: the cluster may be mid-reconfiguration.
			Backoff: func(n int, _ bool) time.Duration { return time.Duration(n) * 10 * time.Millisecond },
		}),
		closed: make(chan struct{}),
	}
	go c.recvLoop()
	if err := c.resolve(bootstrap); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// Close releases the client endpoint. Later and concurrent calls are
// no-ops.
func (c *Client) Close() {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.ep.Close()
	})
}

// Config returns the client's current view of the cluster.
func (c *Client) Config() *proto.Config {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.core.Config()
}

// recvLoop hands every reply to the core and wakes the operation it
// belongs to.
func (c *Client) recvLoop() {
	for {
		p, err := c.ep.Recv()
		if err != nil {
			return
		}
		// Servers coalesce replies bound for the same client into one
		// TBatch packet; deliver each to its operation.
		_ = proto.ForEachPacked(p.Payload, func(enc []byte) error {
			msg, err := proto.Decode(enc)
			if err != nil {
				return nil
			}
			c.mu.Lock()
			op, st := c.core.Reply(msg)
			c.mu.Unlock()
			if op != nil {
				// A wake already pending covers this one: the waiter
				// re-reads the op's state (see run).
				select {
				case op.Ctx.(chan protocol.Step) <- st:
				default:
				}
			}
			return nil
		})
		transport.ReleaseBuf(p.Payload)
	}
}

// timerPool recycles timeout timers across calls: time.After would
// leave a live runtime timer behind for the full timeout after every
// completed request, which at pipelined rates means thousands of
// orphaned timers churning the timer heap. Pooled timers are stopped
// and drained.
var timerPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}}

func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// do runs one request (see run), counted as one operation.
func (c *Client) do(target protocol.Target, build func(proto.ReqID) proto.Message) (proto.Message, error) {
	Metrics.Requests.Inc()
	return c.run(&protocol.Op{Target: target, Build: build})
}

// run drives op to completion on the calling goroutine: it sends each
// attempt the core routes, waits for a reply, the attempt's timeout or
// a backoff, and re-resolves before every retry. It is the one retry
// loop behind every request the client sends.
func (c *Client) run(op *protocol.Op) (proto.Message, error) {
	wake := make(chan protocol.Step, 1)
	op.Ctx = wake
	c.mu.Lock()
	s := c.core.Attempt(op)
	c.mu.Unlock()
	t := timerPool.Get().(*time.Timer)
	defer func() {
		stopTimer(t)
		timerPool.Put(t)
	}()
	for {
		cur := op.Attempt()
		st := protocol.Step{Action: protocol.Arm, Timer: s.Timer}
		err := s.Err
		if err == nil {
			err = c.ep.Send(s.To, proto.AppendEncode(transport.AcquireBuf(), s.Msg))
		}
		if err != nil {
			c.mu.Lock()
			st = c.core.Fail(op, err)
			c.mu.Unlock()
		}
		for st.Action == protocol.Arm {
			tm := st.Timer
			stopTimer(t)
			t.Reset(tm.After)
			for waiting := true; waiting; {
				select {
				case w := <-wake:
					// A retry status from an earlier attempt is stale.
					if w.Action != protocol.Arm || w.Timer.Attempt == cur {
						st, waiting = w, false
					}
				case <-t.C:
					if !tm.Backoff {
						Metrics.Timeouts.Inc()
					}
					c.mu.Lock()
					st = c.core.Expire(op, tm)
					c.mu.Unlock()
					waiting = false
				case <-c.closed:
					return nil, transport.ErrClosed
				}
			}
		}
		if st.Action != protocol.Retry {
			// Finished, or None: a timer went stale because a reply
			// completed the op while its wake was coalesced.
			c.mu.Lock()
			reply, err := op.Result()
			c.mu.Unlock()
			return reply, err
		}
		Metrics.Retries.Inc()
		_ = c.resolve(nil)
		c.mu.Lock()
		s = c.core.Attempt(op)
		c.mu.Unlock()
	}
}

// resolve asks the given addresses (or every node of the last known
// config), one at a time, for their configuration — the client-side
// analogue of the paper's multicast re-discovery. The core adopts every
// answer not older than its view; resolve fails only if none answered.
func (c *Client) resolve(addrs []string) error {
	Metrics.Resolves.Inc()
	if addrs == nil {
		if cfg := c.Config(); cfg != nil {
			for _, id := range cfg.AllNodes() {
				addrs = append(addrs, core.NodeAddr(id))
			}
		}
	}
	answered := false
	for _, a := range addrs {
		_, err := c.run(&protocol.Op{Target: protocol.Addr(a), Build: newResolve})
		answered = answered || err == nil
	}
	if !answered {
		return fmt.Errorf("client: no node answered resolve")
	}
	return nil
}

func newResolve(req proto.ReqID) proto.Message { return &proto.Resolve{Req: req} }

// as narrows a request's reply to the type its request expects.
func as[T proto.Message](m proto.Message, err error) (T, error) {
	r, ok := m.(T)
	if err == nil && !ok {
		err = fmt.Errorf("client: unexpected reply %T", m)
	}
	return r, err
}

// Put stores value under key in the cluster's default memgest.
func (c *Client) Put(key string, value []byte) (proto.Version, error) {
	return c.PutIn(key, value, 0)
}

// PutIn stores value under key in a specific memgest.
func (c *Client) PutIn(key string, value []byte, mg proto.MemgestID) (proto.Version, error) {
	return putResult(c.doPutOp(key, value, mg))
}

// Get fetches the newest committed value of key.
func (c *Client) Get(key string) ([]byte, proto.Version, error) {
	return c.GetVersion(key, 0)
}

// GetVersion fetches a specific retained version of key (0 = newest).
// Older versions exist while in flight or when the cluster runs with
// KeepVersions > 0 — e.g. the durable copy a key had before being
// moved to the unreliable memgest.
func (c *Client) GetVersion(key string, ver proto.Version) ([]byte, proto.Version, error) {
	return getResult(c.doGetOp(key, ver))
}

// Delete removes key.
func (c *Client) Delete(key string) error {
	return deleteResult(c.doDeleteOp(key))
}

// Move transfers key to another memgest without resending its value.
func (c *Client) Move(key string, mg proto.MemgestID) (proto.Version, error) {
	r, err := as[*proto.MoveReply](c.do(protocol.Key(key), func(req proto.ReqID) proto.Message {
		return &proto.Move{Req: req, Key: key, Memgest: mg}
	}))
	if err != nil {
		return 0, err
	}
	if r.Status == proto.StNotFound {
		return 0, ErrNotFound
	}
	return r.Version, r.Status.Err()
}

// leaderOp runs a leader-routed management request; a non-OK status
// is its error. refresh re-resolves after a success, for requests that
// change the configuration (so later puts route into a new scheme).
func (c *Client) leaderOp(refresh bool, build func(proto.ReqID) proto.Message) (*proto.MemgestReply, error) {
	r, err := as[*proto.MemgestReply](c.do(protocol.Leader(), build))
	if err == nil {
		err = r.Status.Err()
	}
	if err == nil && refresh {
		_ = c.resolve(nil)
	}
	return r, err
}

// CreateMemgest instantiates a new storage scheme and returns its ID.
func (c *Client) CreateMemgest(sc proto.Scheme) (proto.MemgestID, error) {
	r, err := c.leaderOp(true, func(req proto.ReqID) proto.Message {
		return &proto.CreateMemgest{Req: req, Scheme: sc}
	})
	if err != nil {
		return 0, err
	}
	return r.Memgest, nil
}

// DeleteMemgest removes a memgest.
func (c *Client) DeleteMemgest(id proto.MemgestID) error {
	_, err := c.leaderOp(true, func(req proto.ReqID) proto.Message {
		return &proto.DeleteMemgest{Req: req, Memgest: id}
	})
	return err
}

// SetDefaultMemgest selects the memgest for puts without an explicit
// scheme.
func (c *Client) SetDefaultMemgest(id proto.MemgestID) error {
	_, err := c.leaderOp(true, func(req proto.ReqID) proto.Message {
		return &proto.SetDefault{Req: req, Memgest: id}
	})
	return err
}

// GetMemgestDescriptor fetches a memgest's scheme.
func (c *Client) GetMemgestDescriptor(id proto.MemgestID) (proto.Scheme, error) {
	r, err := c.leaderOp(false, func(req proto.ReqID) proto.Message {
		return &proto.GetDescriptor{Req: req, Memgest: id}
	})
	if err != nil {
		return proto.Scheme{}, err
	}
	return r.Scheme, nil
}
