package client

import (
	"fmt"

	"ring/internal/client/protocol"
	"ring/internal/proto"
)

// Convert re-encodes the newest committed version of key into memgest
// to, on the key's coordinator. from restricts the conversion to keys
// currently in that memgest (0 = whichever memgest holds the highest
// version). The call returns once the destination write committed and
// the source copy was purged — the transition window the coordinator
// holds open is invisible here beyond latency.
func (c *Client) Convert(key string, from, to proto.MemgestID) (proto.Version, error) {
	r, err := as[*proto.ConvertReply](c.do(protocol.Key(key), func(req proto.ReqID) proto.Message {
		return &proto.Convert{Req: req, Key: key, From: from, To: to}
	}))
	if err != nil {
		return 0, err
	}
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
		op := &protocol.Op{Target: protocol.Shard(shard), Build: func(req proto.ReqID) proto.Message {
			return &proto.Convert{Req: req, Key: prefix, From: from, To: to, Prefix: true}
		}}
		r, err := as[*proto.ConvertReply](c.run(op))
		if err == nil {
			err = r.Status.Err()
		}
		if err != nil {
			return total, err
		}
		total += int(r.Converted)
		cfg = c.Config()
		for s, owner := range cfg.Coords {
			if owner == cfg.Coords[shard] && s < len(done) {
				done[s] = true
			}
		}
	}
	return total, nil
}

// resize runs a leader-routed membership request, then refreshes the
// client's view of the changed configuration.
func (c *Client) resize(op proto.ResizeOp, node proto.NodeID) (*proto.ResizeReply, error) {
	r, err := as[*proto.ResizeReply](c.do(protocol.Leader(), func(req proto.ReqID) proto.Message {
		return &proto.Resize{Req: req, Op: op, Node: node}
	}))
	if err != nil {
		return nil, err
	}
	_ = c.resolve(nil)
	return r, r.Status.Err()
}

// ResizeJoin admits node into the cluster as a spare (quarantine-then-
// announce: the node must be running and rejoining). Idempotent.
// Returns the epoch of the configuration that includes the node.
func (c *Client) ResizeJoin(node proto.NodeID) (proto.Epoch, error) {
	r, err := c.resize(proto.ResizeJoin, node)
	if r == nil {
		return 0, err
	}
	return r.Epoch, err
}

// ResizeLeave gracefully removes node: the leader fences it behind a
// configuration that excludes it, substitutes a spare into its roles,
// and announces cluster-wide once the fence acks. Returns the number
// of placement slots that actually moved (the minimal-movement
// metric) and the new epoch.
func (c *Client) ResizeLeave(node proto.NodeID) (int, proto.Epoch, error) {
	r, err := c.resize(proto.ResizeLeave, node)
	if r == nil {
		return 0, 0, err
	}
	return int(r.Moved), r.Epoch, err
}
