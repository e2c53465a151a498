package client

import (
	"fmt"
	"time"

	"ring/internal/core"
	"ring/internal/proto"
)

// Convert re-encodes the newest committed version of key into memgest
// to, on the key's coordinator. from restricts the conversion to keys
// currently in that memgest (0 = whichever memgest holds the highest
// version). The call returns once the destination write committed and
// the source copy was purged — the transition window the coordinator
// holds open is invisible here beyond latency.
func (c *Client) Convert(key string, from, to proto.MemgestID) (proto.Version, error) {
	reply, err := c.doKeyOp(key,
		func(req proto.ReqID) proto.Message {
			return &proto.Convert{Req: req, Key: key, From: from, To: to}
		},
		func(m proto.Message) proto.Status { return m.(*proto.ConvertReply).Status })
	if err != nil {
		return 0, err
	}
	r := reply.(*proto.ConvertReply)
	if r.Status == proto.StNotFound {
		return 0, ErrNotFound
	}
	return r.Version, r.Status.Err()
}

// ConvertPrefix bulk-converts every key matching prefix into memgest
// to. A coordinator only converts the keys of shards it owns, so the
// client visits the coordinator of each shard in turn, one at a time,
// and sums the per-node counts; a coordinator owning several shards is
// visited once. A retry re-resolves and targets the shard's current
// coordinator, so a shard that moved mid-bulk (a leave) is converted
// where it lives now. Returns the number of keys converted (partial on
// error: coordinators already answered have converted their keys).
func (c *Client) ConvertPrefix(prefix string, from, to proto.MemgestID) (int, error) {
	Metrics.Requests.Inc()
	cfg := c.Config()
	if cfg == nil || cfg.Shards() == 0 {
		return 0, fmt.Errorf("client: no configuration")
	}
	total := 0
	done := make([]bool, cfg.Shards())
	for shard := range done {
		if done[shard] {
			continue
		}
		var lastErr error
		ok := false
		for attempt := 0; attempt <= c.opts.Retries && !ok; attempt++ {
			if attempt > 0 {
				Metrics.Retries.Inc()
				_ = c.resolve(nil)
				time.Sleep(time.Duration(attempt) * 10 * time.Millisecond)
				cfg = c.Config()
			}
			id := cfg.Coords[shard]
			req := c.reqID()
			reply, err := c.call(core.NodeAddr(id), req,
				&proto.Convert{Req: req, Key: prefix, From: from, To: to, Prefix: true})
			if err != nil {
				lastErr = err
				continue
			}
			r, isConv := reply.(*proto.ConvertReply)
			if !isConv {
				lastErr = fmt.Errorf("client: unexpected reply %T", reply)
				continue
			}
			if retryStatus(r.Status) {
				lastErr = r.Status.Err()
				continue
			}
			if err := r.Status.Err(); err != nil {
				return total, err
			}
			total += int(r.Converted)
			for s, owner := range cfg.Coords {
				if owner == id && s < len(done) {
					done[s] = true
				}
			}
			ok = true
		}
		if !ok {
			if lastErr == nil {
				lastErr = ErrTimeout
			}
			return total, lastErr
		}
	}
	return total, nil
}

// doResize runs a leader-routed membership request.
func (c *Client) doResize(op proto.ResizeOp, node proto.NodeID) (*proto.ResizeReply, error) {
	Metrics.Requests.Inc()
	var lastErr error
	for attempt := 0; attempt <= c.opts.Retries; attempt++ {
		if attempt > 0 {
			Metrics.Retries.Inc()
			_ = c.resolve(nil)
			time.Sleep(time.Duration(attempt) * 10 * time.Millisecond)
		}
		to, err := c.leaderAddr()
		if err != nil {
			lastErr = err
			continue
		}
		req := c.reqID()
		reply, err := c.call(to, req, &proto.Resize{Req: req, Op: op, Node: node})
		if err != nil {
			lastErr = err
			continue
		}
		r, ok := reply.(*proto.ResizeReply)
		if !ok {
			lastErr = fmt.Errorf("client: unexpected reply %T", reply)
			continue
		}
		if retryStatus(r.Status) {
			lastErr = r.Status.Err()
			continue
		}
		return r, nil
	}
	if lastErr == nil {
		lastErr = ErrTimeout
	}
	return nil, lastErr
}

// ResizeJoin admits node into the cluster as a spare (quarantine-then-
// announce: the node must be running and rejoining). Idempotent.
// Returns the epoch of the configuration that includes the node.
func (c *Client) ResizeJoin(node proto.NodeID) (proto.Epoch, error) {
	r, err := c.doResize(proto.ResizeJoin, node)
	if err != nil {
		return 0, err
	}
	_ = c.resolve(nil)
	return r.Epoch, r.Status.Err()
}

// ResizeLeave gracefully removes node: the leader fences it behind a
// configuration that excludes it, substitutes a spare into its roles,
// and announces cluster-wide once the fence acks. Returns the number
// of placement slots that actually moved (the minimal-movement
// metric) and the new epoch.
func (c *Client) ResizeLeave(node proto.NodeID) (int, proto.Epoch, error) {
	r, err := c.doResize(proto.ResizeLeave, node)
	if err != nil {
		return 0, 0, err
	}
	_ = c.resolve(nil)
	return int(r.Moved), r.Epoch, r.Status.Err()
}
