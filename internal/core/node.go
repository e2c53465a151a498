// Package core implements the Ring server: a single-threaded,
// event-driven node state machine that plays every role of the paper's
// architecture — shard coordinator, replica, parity node, leader, and
// spare — plus the livenet runner that drives a cluster of such nodes
// over a real transport.
//
// The state machine design mirrors the paper's single-threaded servers
// and is what allows the same node logic to run both over goroutines
// and real message fabrics (tests, examples, live benchmarks) and
// inside the discrete-event simulator (package sim) that reproduces
// the paper's microsecond-scale latency figures.
package core

import (
	"fmt"
	"time"

	"ring/internal/proto"
	"ring/internal/replog"
	"ring/internal/store"
)

// nodeAddrs caches the addresses of small node IDs: NodeAddr sits on
// the per-message send path, where a fmt.Sprintf per call is real CPU.
var nodeAddrs = func() (a [256]string) {
	for i := range a {
		a[i] = fmt.Sprintf("node/%d", i)
	}
	return
}()

// NodeAddr returns the fabric address of a node ID.
func NodeAddr(id proto.NodeID) string {
	if int(id) < len(nodeAddrs) {
		return nodeAddrs[id]
	}
	return fmt.Sprintf("node/%d", id)
}

// Options tunes a node. The zero value is completed by Defaults.
type Options struct {
	// BlockSize is the capacity of one SRS logical block in bytes.
	BlockSize int
	// HeartbeatEvery is the leader's heartbeat period.
	HeartbeatEvery time.Duration
	// FailAfter is the silence threshold after which the leader
	// declares a node dead (and a follower suspects the leader).
	FailAfter time.Duration
	// KeepVersions is how many committed versions older than the
	// newest committed one are retained before GC removes them. The
	// paper's default ("removing of old versions after every committed
	// put") is 0; the dynamic-importance use case raises it.
	KeepVersions int
	// LogRetain bounds the per-shard replicated log.
	LogRetain int
	// KeepDurableBackup prevents GC from removing the newest committed
	// version that lives in a *reliable* memgest while every newer
	// version sits in the unreliable Rep(1) scheme — the paper's
	// "preserving previous reliable copies" semantics for the
	// heavy-updates use case. It composes with KeepVersions.
	KeepDurableBackup bool
	// ChaosUnsafeAck deliberately acknowledges writes before the
	// replication quorum is reached. It exists ONLY to validate the
	// chaos harness (cmd/ringchaos -bug): the linearizability checker
	// must catch the lost updates this produces under faults. Never
	// set it outside that test path.
	ChaosUnsafeAck bool
	// ChaosUnsafeConvert deliberately acknowledges scheme transitions
	// before the transition journal record is written and purges the
	// source version before the destination write is durable. It exists
	// ONLY to validate the elasticity chaos lane (cmd/ringchaos
	// -convbug): a coordinator crash in the window silently loses the
	// key, which the checker must flag. Never set it outside that path.
	ChaosUnsafeConvert bool
	// SyncReplication switches Rep memgests from quorum commits
	// (majority of r) to fully synchronous commits (all r copies), the
	// alternative discussed in Section 3.1: r-1 failures tolerated for
	// availability, at higher put latency. Used by the ablation bench.
	SyncReplication bool
}

// Defaults fills unset fields.
func (o Options) Defaults() Options {
	if o.BlockSize <= 0 {
		o.BlockSize = 64 << 10
	}
	if o.HeartbeatEvery <= 0 {
		o.HeartbeatEvery = 50 * time.Millisecond
	}
	if o.FailAfter <= 0 {
		o.FailAfter = 5 * o.HeartbeatEvery
	}
	if o.LogRetain <= 0 {
		o.LogRetain = 4096
	}
	return o
}

// Out is one outgoing message produced by a state transition.
type Out struct {
	To  string
	Msg proto.Message
}

// Node is one Ring server. It is not safe for concurrent use: a runner
// must serialize HandleMessage and HandleTick calls, exactly like the
// paper's single-threaded event loop.
type Node struct {
	id   proto.NodeID
	opts Options

	cfg  *proto.Config
	prev *proto.Config // previous config, to detect role changes

	// vol is the volatile hashtable, one per shard this node
	// coordinates.
	vol map[uint32]*store.VolatileIndex
	// mg is the per-memgest state for every role this node plays.
	mg map[proto.MemgestID]*mgState

	// Leader state.
	lastAck  map[proto.NodeID]time.Duration
	nextMgID proto.MemgestID
	// Follower state.
	lastHeartbeat time.Duration

	// Recovery state: outstanding metadata fetches keyed by request.
	recovering map[proto.ReqID]*metaRecovery
	// Pending block recoveries this node is running as parity master.
	blockRecs map[proto.ReqID]*blockRecovery
	// Outstanding data/block recovery requests issued by this node as
	// a recovering coordinator or replica.
	dataRecs map[proto.ReqID]*dataRecovery
	// parityRebuilds tracks stripe rebuilds on a new parity node.
	parityRebuilds map[proto.ReqID]*parityRebuild
	// bgQueue and bgInflight implement the bounded background data
	// recovery pump; bgTasks0 maps outstanding request IDs back to
	// their queue task for retry accounting.
	bgQueue    []bgTask
	bgInflight int
	bgTasks0   map[proto.ReqID]bgTask

	// converting tracks the open scheme-transition windows of shards
	// this node coordinates: client writes to a converting key park here
	// and replay when the window closes (commit or abort).
	converting map[convKey]*convState
	// bulkConverts aggregates in-flight prefix conversions; nextBulkID
	// names them (node-local, never crosses the wire). bulkQueue holds
	// the ones with keys still to launch, oldest first, and bulkOpen
	// counts the bulk-launched keys not yet settled, which pumpBulk
	// keeps at most bulkWindow.
	bulkConverts map[string]*bulkConvert
	nextBulkID   uint64
	bulkQueue    []*bulkConvert
	bulkOpen     int
	// pendingResize is the leader's in-flight leave fence (one at a
	// time): the new configuration is pushed to the departing node
	// first, and announced cluster-wide only once that node acked it
	// (or went silent past FailAfter).
	pendingResize *resizeState

	// serving is false while metadata recovery is in progress; client
	// requests are answered with StRetry until it completes.
	serving bool

	// rejoining is true on a node that restarted with empty state and
	// has not yet been re-admitted by the leader (see rejoin.go). While
	// set, only ConfigPush, Resolve, and client retries are serviced.
	rejoining    bool
	joinAttempts int

	// durable is the optional persistent engine (see durable.go);
	// durableErr is the sticky first persist failure (the node must
	// crash-stop once set); durStash is state recovered from disk,
	// consumed when the re-admitting configuration installs.
	durable    *replog.Durable
	durableErr error
	durStash   map[replog.ShardKey]*replog.RecoveredShard

	nextReq proto.ReqID
	now     time.Duration
	outs    []Out

	// Counters for tests and instrumentation.
	Stats Stats
	// Metrics is the always-on observability surface (atomic counters,
	// latency histograms, trace ring); see NodeMetrics for the reading
	// discipline.
	Metrics *NodeMetrics
}

// Stats counts node activity.
type Stats struct {
	Puts, Gets, Deletes, Moves   uint64
	Converts                     uint64
	Commits, ParkedGets          uint64
	ParityUpdates, RepAppends    uint64
	BlocksRecovered, MetaRecovs  uint64
	BytesParityXor, BytesWritten uint64
	// BytesDecoded counts erasure-decode work (recovery path); the
	// simulator charges CPU time proportionally.
	BytesDecoded uint64
	// BytesMetaInstalled counts metadata records installed during
	// recovery, which dominates the Figure 12 experiment.
	BytesMetaInstalled uint64
}

// metaRecovery tracks one outstanding MetaFetch.
type metaRecovery struct {
	memgest proto.MemgestID
	shard   uint32
	// role is what this node becomes for the memgest once recovered.
	role recoveredRole
	// peers yet to answer (for union merging we ask several).
	waiting map[proto.NodeID]bool
	// replies collected so far, per peer.
	replies []*proto.MetaFetchReply
	// lastSent drives the tick-based retry: peers that die mid-fetch
	// are pruned once the config drops them, and surviving peers are
	// re-asked (MetaFetch is an idempotent snapshot read).
	lastSent time.Duration
	// since is the delta floor carried on every (re)send: a node that
	// recovered durable state only needs records past it.
	since proto.Seq
}

type recoveredRole uint8

const (
	roleCoordinator recoveredRole = iota + 1
	roleReplica
	roleParity
)

// blockRecovery is parity-master state for one in-flight stripe decode.
type blockRecovery struct {
	requester string
	req       proto.ReqID
	memgest   proto.MemgestID
	block     uint32
	// have maps stripe position -> block contents gathered so far
	// (including this node's own parity at position k+r).
	have    map[int][]byte
	pending int
}

// dataRecovery tracks a value or block this node asked to be recovered.
type dataRecovery struct {
	memgest proto.MemgestID
	shard   uint32
	block   uint32 // SRS block recovery
	key     string // Rep value recovery
	version proto.Version
}

// New creates a node with an installed initial configuration. All
// nodes of a fresh cluster are constructed with the same config; no
// recovery is triggered for roles assigned at construction.
func New(id proto.NodeID, cfg *proto.Config, opts Options) *Node {
	n := &Node{
		id:             id,
		opts:           opts.Defaults(),
		vol:            make(map[uint32]*store.VolatileIndex),
		mg:             make(map[proto.MemgestID]*mgState),
		lastAck:        make(map[proto.NodeID]time.Duration),
		recovering:     make(map[proto.ReqID]*metaRecovery),
		blockRecs:      make(map[proto.ReqID]*blockRecovery),
		dataRecs:       make(map[proto.ReqID]*dataRecovery),
		parityRebuilds: make(map[proto.ReqID]*parityRebuild),
		bgTasks0:       make(map[proto.ReqID]bgTask),
		converting:     make(map[convKey]*convState),
		bulkConverts:   make(map[string]*bulkConvert),
		serving:        true,
		nextReq:        1,
		nextMgID:       1,
		Metrics:        newNodeMetrics(),
	}
	n.installConfig(cfg, true)
	return n
}

// ID returns the node's identifier.
func (n *Node) ID() proto.NodeID { return n.id }

// Config returns the currently installed configuration.
func (n *Node) Config() *proto.Config { return n.cfg }

// Serving reports whether the node has completed recovery and serves
// client requests.
func (n *Node) Serving() bool { return n.serving }

// IsLeader reports whether this node is the current leader.
func (n *Node) IsLeader() bool { return n.cfg != nil && n.cfg.Leader == n.id }

// send queues an outgoing message.
func (n *Node) send(to string, msg proto.Message) {
	n.outs = append(n.outs, Out{To: to, Msg: msg})
}

// sendNode queues a message to another node.
func (n *Node) sendNode(id proto.NodeID, msg proto.Message) {
	n.send(NodeAddr(id), msg)
}

// reqID allocates an internal request id for node-initiated requests.
func (n *Node) reqID() proto.ReqID {
	r := n.nextReq
	n.nextReq++
	return r
}

// HandleMessage processes one incoming message at the given node-local
// time and returns the messages to transmit. `from` is the fabric
// address of the sender.
//
//ring:hotpath-stop the Node state machine is bounded by its own rules (simdeterminism), not the zero-alloc budget
func (n *Node) HandleMessage(now time.Duration, from string, msg proto.Message) []Out {
	n.now = now
	n.outs = n.outs[:0]
	n.Metrics.Events.Inc()
	if n.rejoining {
		n.handleRejoining(from, msg)
		return n.outs
	}
	switch m := msg.(type) {
	// Client operations.
	case *proto.Put:
		n.handlePut(from, m)
	case *proto.Get:
		n.handleGet(from, m)
	case *proto.Delete:
		n.handleDelete(from, m)
	case *proto.Move:
		n.handleMove(from, m)
	case *proto.Convert:
		n.handleConvert(from, m)
	case *proto.Resize:
		n.handleResize(from, m)
	case *proto.CreateMemgest:
		n.handleCreateMemgest(from, m)
	case *proto.DeleteMemgest:
		n.handleDeleteMemgest(from, m)
	case *proto.SetDefault:
		n.handleSetDefault(from, m)
	case *proto.GetDescriptor:
		n.handleGetDescriptor(from, m)
	case *proto.Resolve:
		n.send(from, &proto.ResolveReply{Req: m.Req, Config: n.cfg.Clone()})
	// Replication plane.
	case *proto.RepAppend:
		n.handleRepAppend(from, m)
	case *proto.RepAck:
		n.handleRepAck(from, m)
	case *proto.RepCommit:
		n.handleRepCommit(from, m)
	case *proto.ParityUpdate:
		n.handleParityUpdate(from, m)
	case *proto.ParityAck:
		n.handleParityAck(from, m)
	case *proto.Purge:
		n.handlePurge(from, m)
	// Membership.
	case *proto.Heartbeat:
		n.handleHeartbeat(from, m)
	case *proto.HeartbeatAck:
		n.handleHeartbeatAck(from, m)
	case *proto.ConfigPush:
		n.handleConfigPush(from, m)
	case *proto.ConfigAck:
		n.handleConfigAck(from, m)
	case *proto.Join:
		n.handleJoin(from, m)
	// Recovery.
	case *proto.MetaFetch:
		n.handleMetaFetch(from, m)
	case *proto.MetaFetchReply:
		n.handleMetaFetchReply(from, m)
	case *proto.DataFetch:
		n.handleDataFetch(from, m)
	case *proto.DataFetchReply:
		n.handleDataFetchReply(from, m)
	case *proto.BlockRecover:
		n.handleBlockRecover(from, m)
	case *proto.BlockRecoverReply:
		n.handleBlockRecoverReply(from, m)
	case *proto.BlockFetch:
		n.handleBlockFetch(from, m)
	case *proto.BlockFetchReply:
		n.handleBlockFetchReply(from, m)
	case *proto.Tick:
		n.handleTick()
	}
	n.pumpBulk()
	return n.outs
}

// HandleTick drives time-based behaviour (heartbeats, failure
// detection, background recovery).
//
//ring:hotpath-stop the Node state machine is bounded by its own rules (simdeterminism), not the zero-alloc budget
func (n *Node) HandleTick(now time.Duration) []Out {
	n.now = now
	n.outs = n.outs[:0]
	n.Metrics.Ticks.Inc()
	n.handleTick()
	n.pumpBulk()
	return n.outs
}

// shardOf returns the shard a key maps to under the current config.
func (n *Node) shardOf(key string) uint32 {
	return uint32(n.cfg.ShardOf(store.KeyHash(key)))
}

// coordinates reports whether this node coordinates the given shard.
func (n *Node) coordinates(shard uint32) bool {
	return int(shard) < len(n.cfg.Coords) && n.cfg.Coords[shard] == n.id
}

// volFor returns (creating if needed) the volatile index of a shard
// this node coordinates.
func (n *Node) volFor(shard uint32) *store.VolatileIndex {
	v, ok := n.vol[shard]
	if !ok {
		v = store.NewVolatileIndex()
		n.vol[shard] = v
	}
	return v
}
