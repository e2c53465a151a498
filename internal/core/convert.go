package core

import (
	"sort"
	"strconv"
	"strings"
	"time"

	"ring/internal/proto"
	"ring/internal/store"
)

// This file implements online per-key scheme transitions ("convert"):
// re-encoding a key's durable highest version from its current memgest
// into another one — Rep(3) to SRS(3,2), say — while the cluster keeps
// serving. A conversion is a journaled re-put: the coordinator reads
// the committed source version locally (SRS co-location makes the read
// free of network traffic), opens a transition window, and runs the
// normal write pipeline into the destination memgest. Client writes to
// the key park on the window and replay when it closes; reads ride the
// existing parked-get machinery (a get of the in-flight destination
// version parks until commit, gets of the source version keep being
// served from it). The window is crash-safe: a conv-begin record is
// journaled before the destination write launches and a conv-end
// record is journaled before the ack escapes, so replay lands on
// exactly the old or the new scheme, never a hybrid.

// convKey identifies one open transition window on a coordinator.
type convKey struct {
	shard uint32
	key   string
}

// convState is the coordinator-side state of one open window.
type convState struct {
	// client/req is the reply owed when the window closes (possibly a
	// bulk-convert internal address, see bulkConvPrefix).
	client string
	req    proto.ReqID
	// src/dst are the source and destination memgests; newVer is the
	// version the destination write is in flight under.
	src, dst proto.MemgestID
	newVer   proto.Version
	// parked holds client writes that arrived inside the window, in
	// arrival order; they replay through the normal dispatch when the
	// window closes.
	parked []parkedOp
	// started drives the window timeout (convertTick): a destination
	// write whose appends or acks the network ate would otherwise hold
	// the window — and every write parked on it — open forever.
	started time.Duration
}

// parkedOp is one client write parked on a transition window.
type parkedOp struct {
	from string
	msg  proto.Message
}

// bulkConvPrefix marks the internal reply address of a per-key convert
// launched by a bulk (prefix) conversion; the suffix is the bulk id.
const bulkConvPrefix = "bulkconv/"

// bulkWindow caps the transition windows bulk conversions keep open on
// one node at a time, shared by every active bulk request. Launched all
// at once, a prefix's keys (over a thousand per coordinator on the
// benchmark cluster) turn into per-peer packets of as many messages,
// and every foreground op on the coordinator and its redundancy nodes
// waits behind them; a bounded window keeps the pipeline full without
// flooding it.
const bulkWindow = 128

// bulkConvert is one prefix conversion in progress: the sorted keys it
// scanned, how far the launch cursor got, and the per-key outcomes
// aggregated so far.
type bulkConvert struct {
	id       string
	client   string
	req      proto.ReqID
	from, to proto.MemgestID
	// keys[next:] are still to launch; inflight were launched and have
	// not settled yet.
	keys      []string
	next      int
	inflight  int
	converted uint32
	failed    proto.Status
}

// parkOnConvert parks a client write that arrived inside the key's
// open transition window. It reports whether the write was parked; a
// parked write replays when the window closes.
func (n *Node) parkOnConvert(shard uint32, key, from string, msg proto.Message) bool {
	cv := n.converting[convKey{shard: shard, key: key}]
	if cv == nil {
		return false
	}
	cv.parked = append(cv.parked, parkedOp{from: from, msg: msg})
	return true
}

// handleConvert coordinates a client scheme transition.
//
//ring:handler
func (n *Node) handleConvert(from string, m *proto.Convert) {
	n.Stats.Converts++
	if m.Prefix {
		n.handleConvertPrefix(from, m)
		return
	}
	// Replies go through replyStatus: a bulk-launched key that parked on
	// a window replays here with its internal bulk address.
	fail := func(s proto.Status) { n.replyStatus(from, m.Req, replyConvert, s, 0) }
	shard, ok := n.checkClientOp(m.Key, fail)
	if !ok {
		return
	}
	if n.parkOnConvert(shard, m.Key, from, m) {
		return
	}
	n.convertKey(from, m.Req, shard, m.Key, m.From, m.To)
}

// convertKey validates and launches one key's transition. client may be
// a bulk-convert internal address; every reply goes through replyStatus
// so the routing is uniform.
func (n *Node) convertKey(client string, req proto.ReqID, shard uint32, key string, from, to proto.MemgestID) {
	fail := func(s proto.Status) { n.replyStatus(client, req, replyConvert, s, 0) }
	if n.cfg.Memgest(to) == nil {
		fail(proto.StNoMemgest)
		return
	}
	ref, found := n.volFor(shard).Highest(key)
	if !found {
		fail(proto.StNotFound)
		return
	}
	e := n.lookupEntry(shard, key, ref)
	if e == nil || e.Rec.Tombstone {
		fail(proto.StNotFound)
		return
	}
	if from != 0 && ref.Memgest != from {
		// Conditional convert: the key is not under the scheme the
		// caller believes (a concurrent move or convert won).
		fail(proto.StInvalid)
		return
	}
	if ref.Memgest == to {
		// Nothing to re-encode. The version acked is already committed
		// and durable under the destination scheme.
		n.replyStatus(client, req, replyConvert, proto.StOK, ref.Version) //ring:ackok no-op convert: the version acked is already durable
		return
	}
	if !e.Rec.Committed {
		// Same postponement rule as move: transition only durable state.
		e.ParkedMoves = append(e.ParkedMoves, store.MoveWaiter{Client: client, Req: req, Dst: to, Convert: true})
		return
	}
	n.performConvert(client, req, shard, key, to)
}

// performConvert reads the durable highest version locally (recovering
// the backing value or SRS block on demand) and starts the journaled
// transition into dst. Mirrors performMove, plus the window.
func (n *Node) performConvert(client string, req proto.ReqID, shard uint32, key string, dst proto.MemgestID) {
	fail := func(s proto.Status) { n.replyStatus(client, req, replyConvert, s, 0) }
	ref, found := n.volFor(shard).Highest(key)
	if !found {
		fail(proto.StNotFound)
		return
	}
	st := n.mgFor(ref.Memgest)
	e := n.lookupEntry(shard, key, ref)
	if st == nil || e == nil || e.Rec.Tombstone {
		fail(proto.StNotFound)
		return
	}
	if ref.Memgest == dst {
		n.replyStatus(client, req, replyConvert, proto.StOK, ref.Version) //ring:ackok no-op convert: the version acked is already durable
		return
	}
	if n.cfg.Memgest(dst) == nil {
		fail(proto.StNoMemgest)
		return
	}
	cs := st.coord[shard]
	var value []byte
	switch st.info.Scheme.Kind {
	case proto.SchemeRep:
		if e.Value == nil && e.Rec.Length > 0 {
			n.parkOnValueRecovery(st, cs, e, blockWaiter{client: client, req: req, key: key, version: ref.Version, kind: replyConvert, dst: dst})
			return
		}
		value = e.Value
	case proto.SchemeSRS:
		if e.Rec.Length > 0 {
			if !cs.blockOK[e.Ext.Block] {
				n.parkOnBlockRecovery(st, cs, e.Ext.Block, blockWaiter{client: client, req: req, key: key, version: ref.Version, kind: replyConvert, dst: dst})
				return
			}
			value = cs.heap.Read(e.Ext)
		}
	}
	n.startConvert(client, req, shard, key, ref, value, dst)
}

// startConvert opens the transition window: journal the conv-begin
// record, then run the destination write through the normal pipeline.
// The window closes in commitEntry (conv-end journaled before the ack)
// or right here on a synchronous launch failure.
//
// The journal obligation is rooted here rather than on handleConvert:
// downstream of the conv-begin record the transition rides the shared
// write pipeline, whose acks for ordinary puts legitimately carry no
// journal record — the analyzer cannot split commitEntry's kind
// conditional, but it can (and does) prove no ack escapes this
// function before the conv-begin record is down. The conv-end-before-
// ack half lives in commitEntry and is covered by the crash-matrix
// e2e tests and the elasticity chaos lane.
//
//ring:handler journal transition windows must hit the journal before any ack
func (n *Node) startConvert(client string, req proto.ReqID, shard uint32, key string, src store.VersionRef, value []byte, dst proto.MemgestID) {
	newVer := src.Version + 1
	if n.opts.ChaosUnsafeConvert {
		// Injected bug (elasticity chaos-lane validation only): ack the
		// transition before any journal record exists and purge the
		// source version while the destination write is still in flight.
		// A coordinator crash inside that gap silently loses the key's
		// acknowledged state, which the linearizability checker must flag
		// and the shrinker must reduce.
		n.replyStatus(client, req, replyConvert, proto.StOK, newVer) //ring:ackok deliberate ack-before-journal chaos injection
		n.doWrite("", 0, replyNone, shard, key, value, dst, false)   //ring:ackok chaos injection: the unjournaled write is the injected bug
		n.purgeVersion(shard, key, src)
		return
	}
	ck := convKey{shard: shard, key: key}
	cv := &convState{client: client, req: req, src: src.Memgest, dst: dst, newVer: newVer, started: n.now}
	n.converting[ck] = cv
	n.persistConvertBegin(dst, shard, key, newVer, src.Memgest)
	if !n.doWrite(client, req, replyConvert, shard, key, value, dst, false) {
		// The launch failed synchronously and the error reply is already
		// queued: close the journal window and lift the parking.
		n.persistConvertEnd(dst, shard, key, newVer, 0)
		n.finishConvert(ck, cv)
	}
}

// finishConvert closes a transition window and replays the writes that
// parked on it, in arrival order, through the normal dispatch.
func (n *Node) finishConvert(ck convKey, cv *convState) {
	delete(n.converting, ck)
	parked := cv.parked
	cv.parked = nil
	for _, p := range parked {
		n.redispatchParked(p)
	}
}

// redispatchParked re-enters a parked client write. Replaying through
// the public handlers keeps every rule (routing, version allocation,
// re-parking on a window a replayed convert just opened) in one place.
func (n *Node) redispatchParked(p parkedOp) {
	switch m := p.msg.(type) {
	case *proto.Put:
		n.handlePut(p.from, m) //ring:ackok replayed op: it owes and runs its own barrier pipeline
	case *proto.Delete:
		n.handleDelete(p.from, m) //ring:ackok replayed op: it owes and runs its own barrier pipeline
	case *proto.Move:
		n.handleMove(p.from, m) //ring:ackok replayed op: it owes and runs its own barrier pipeline
	case *proto.Convert:
		n.handleConvert(p.from, m) //ring:ackok replayed op: it owes and runs its own barrier pipeline
	}
}

// handleConvertPrefix starts a bulk conversion of every key this node
// coordinates that matches the prefix. The matching keys are queued;
// pumpBulk launches them through the normal single-key transition with
// an internal reply address, at most bulkWindow at a time node-wide,
// and the client gets one aggregated reply once the last key settles.
func (n *Node) handleConvertPrefix(from string, m *proto.Convert) {
	fail := func(s proto.Status) { n.send(from, &proto.ConvertReply{Req: m.Req, Status: s}) }
	if len(n.cfg.Coords) == 0 {
		fail(proto.StUnavailable)
		return
	}
	if !n.serving {
		fail(proto.StRetry)
		return
	}
	if n.cfg.Memgest(m.To) == nil {
		fail(proto.StNoMemgest)
		return
	}
	// Collect matching keys across every owned shard. Hashtable
	// iteration order is arbitrary; sort so simulator replays are
	// deterministic.
	var keys []string
	for _, shard := range n.ownedShards() {
		n.volFor(shard).EachKey(func(key string) bool {
			if strings.HasPrefix(key, m.Key) {
				keys = append(keys, key)
			}
			return true
		})
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		n.send(from, &proto.ConvertReply{Req: m.Req, Status: proto.StOK}) //ring:ackok empty bulk convert: no state changed, nothing owed durability
		return
	}
	id := strconv.FormatUint(n.nextBulkID, 10)
	n.nextBulkID++
	bc := &bulkConvert{id: id, client: from, req: m.Req, from: m.From, to: m.To, keys: keys}
	n.bulkConverts[id] = bc
	n.bulkQueue = append(n.bulkQueue, bc)
}

// pumpBulk fills the node's free bulk-window slots from the queued bulk
// conversions, oldest request first. HandleMessage and HandleTick call
// it once the event is done, so a slot a commit freed is refilled only
// after commitEntry broadcast the commit, GC'd the source version and
// closed the window.
func (n *Node) pumpBulk() {
	for len(n.bulkQueue) > 0 && n.bulkOpen < bulkWindow {
		bc := n.bulkQueue[0]
		if bc.next == len(bc.keys) {
			n.bulkQueue[0] = nil
			n.bulkQueue = n.bulkQueue[1:]
			continue
		}
		key := bc.keys[bc.next]
		bc.next++
		n.launchBulkKey(bc, key)
	}
}

// launchBulkKey runs the deferred launch of one queued key. The node may
// have stopped serving or lost the shard since the scan: the key and
// every key still queued behind it then answer StRetry, and the client
// retries the bulk against the current configuration. A key deleted
// since the scan is skipped without counting as a failure.
func (n *Node) launchBulkKey(bc *bulkConvert, key string) {
	if !n.serving || len(n.cfg.Coords) == 0 || !n.coordinates(n.shardOf(key)) {
		if bc.failed == proto.StOK {
			bc.failed = proto.StRetry
		}
		bc.next = len(bc.keys)
		n.maybeFinishBulk(bc)
		return
	}
	shard := n.shardOf(key)
	ref, found := n.volFor(shard).Highest(key)
	if e := n.lookupEntry(shard, key, ref); !found || e == nil || e.Rec.Tombstone {
		n.maybeFinishBulk(bc)
		return
	}
	bc.inflight++
	n.bulkOpen++
	replyTo := bulkConvPrefix + bc.id
	if n.parkOnConvert(shard, key, replyTo, &proto.Convert{Req: bc.req, Key: key, From: bc.from, To: bc.to}) {
		return
	}
	n.convertKey(replyTo, bc.req, shard, key, bc.from, bc.to)
}

// bulkConvertDone records one key's outcome against its bulk convert
// and frees the key's window slot; replyStatus calls it for every
// bulk-launched key. Keys already under the destination scheme count
// as converted; the first non-OK status wins the aggregate (individual
// keys may still have converted — Converted reports how many).
func (n *Node) bulkConvertDone(id string, s proto.Status) {
	bc := n.bulkConverts[id]
	if bc == nil {
		return
	}
	if s == proto.StOK {
		bc.converted++
	} else if bc.failed == proto.StOK {
		bc.failed = s
	}
	bc.inflight--
	n.bulkOpen--
	n.maybeFinishBulk(bc)
}

// maybeFinishBulk emits the aggregated reply once every key of the bulk
// was launched and settled.
func (n *Node) maybeFinishBulk(bc *bulkConvert) {
	if bc.next < len(bc.keys) || bc.inflight > 0 {
		return
	}
	delete(n.bulkConverts, bc.id)
	n.send(bc.client, &proto.ConvertReply{Req: bc.req, Status: bc.failed, Converted: bc.converted}) //ring:ackok aggregate reply: every per-key outcome it summarizes passed its own barriers
}

// abortConvertWrite cancels a window's in-flight destination write:
// the pending commit is dropped (a late ack must not resurrect it),
// requests parked on the uncommitted destination version are bounced
// with StRetry, the version is purged, and the journal window closed.
// The committed source version is untouched — aborting a transition
// always lands on the old scheme.
func (n *Node) abortConvertWrite(ck convKey, cv *convState) {
	if st := n.mgFor(cv.dst); st != nil {
		if cs := st.coord[ck.shard]; cs != nil {
			if e := cs.meta.Get(ck.key, cv.newVer); e != nil && !e.Rec.Committed {
				for seq, pc := range cs.pending {
					if pc.key == ck.key && pc.version == cv.newVer {
						delete(cs.pending, seq)
					}
				}
				for _, w := range e.ParkedGets {
					n.send(w.Client, &proto.GetReply{Req: w.Req, Status: proto.StRetry})
				}
				e.ParkedGets = nil
				moves := e.ParkedMoves
				e.ParkedMoves = nil
				for _, mw := range moves {
					kind := replyMove
					if mw.Convert {
						kind = replyConvert
					}
					n.replyStatus(mw.Client, mw.Req, kind, proto.StRetry, 0)
				}
				n.purgeVersion(ck.shard, ck.key, store.VersionRef{Version: cv.newVer, Memgest: cv.dst})
			}
		}
	}
	n.persistConvertEnd(cv.dst, ck.shard, ck.key, cv.newVer, 0)
}

// convertTick aborts transition windows that outlived the failure
// detector. A window normally spans one destination write round-trip;
// one still open past FailAfter has lost an append or an ack to the
// fault plane, and the write pipeline has no retransmit of its own —
// client writes recover from loss through client retries, but those
// park on the window here, so a stuck window would wedge the key
// forever (new attempts of the conversion itself included). The abort
// purges the uncommitted destination version, journals the transition
// closed, and answers StRetry; the committed source version is
// untouched, so the caller simply converts again.
func (n *Node) convertTick() {
	if len(n.converting) == 0 {
		return
	}
	var stale []convKey
	for ck, cv := range n.converting {
		if n.now-cv.started > n.opts.FailAfter {
			stale = append(stale, ck)
		}
	}
	sort.Slice(stale, func(i, j int) bool {
		if stale[i].shard != stale[j].shard {
			return stale[i].shard < stale[j].shard
		}
		return stale[i].key < stale[j].key
	})
	for _, ck := range stale {
		cv := n.converting[ck]
		if cv == nil {
			continue // closed by an earlier abort's replay
		}
		n.Metrics.ConvertsAborted.Inc()
		n.abortConvertWrite(ck, cv)
		delete(n.converting, ck)
		n.replyStatus(cv.client, cv.req, replyConvert, proto.StRetry, 0)
		for _, p := range cv.parked {
			n.redispatchParked(p)
		}
	}
}

// replanConverts re-examines every open transition window after a
// configuration change (installConfig calls it last): a window whose
// destination write was fanned out under the old redundancy assignment
// may never reach quorum under the new one, and a window whose shard
// moved away no longer belongs here. Each affected window is aborted
// and — when this node still coordinates the key — relaunched against
// the new configuration, so a convert racing a node departure replans
// instead of wedging.
func (n *Node) replanConverts() {
	if len(n.converting) == 0 {
		return
	}
	cks := make([]convKey, 0, len(n.converting))
	for ck := range n.converting {
		cks = append(cks, ck)
	}
	sort.Slice(cks, func(i, j int) bool {
		if cks[i].shard != cks[j].shard {
			return cks[i].shard < cks[j].shard
		}
		return cks[i].key < cks[j].key
	})
	for _, ck := range cks {
		cv := n.converting[ck]
		if cv == nil {
			continue // closed by an earlier replan's replay
		}
		n.Metrics.ConvertsReplanned.Inc()
		if !n.coordinates(ck.shard) {
			// The shard moved to another coordinator along with all its
			// state; the caller retries there. Parked writes replay below
			// and bounce off checkClientOp with StWrongNode.
			delete(n.converting, ck)
			n.replyStatus(cv.client, cv.req, replyConvert, proto.StRetry, 0)
			for _, p := range cv.parked {
				n.redispatchParked(p)
			}
			continue
		}
		n.abortConvertWrite(ck, cv)
		delete(n.converting, ck)
		parked := cv.parked
		if n.cfg.Memgest(cv.dst) == nil {
			n.replyStatus(cv.client, cv.req, replyConvert, proto.StNoMemgest, 0)
		} else {
			n.convertKey(cv.client, cv.req, ck.shard, ck.key, 0, cv.dst)
		}
		// The relaunch may have opened a fresh window for the key: carry
		// the parked writes over (they arrived first, they stay first).
		// Otherwise it settled synchronously and they replay now.
		if nv := n.converting[ck]; nv != nil {
			nv.parked = append(parked, nv.parked...)
		} else {
			for _, p := range parked {
				n.redispatchParked(p)
			}
		}
	}
}
