// Package raft implements the Raft consensus algorithm (leader election,
// log replication, commitment; Ongaro & Ousterhout 2014) used to replicate
// the Oasis pod-wide allocator (§3.5). RPCs travel over an abstract
// Transport; the production transport runs on the datapath's 64-byte
// message channels, with one RPC per channel message (allocator commands
// are small fixed-size records, so no fragmentation is needed).
//
// Scope: the full core protocol — randomized election timeouts, term and
// vote safety, log matching, commit via majority match — without
// membership changes or snapshots, which the allocator does not need (its
// log is a bounded stream of placement decisions).
package raft

import (
	"fmt"
	"math/rand"
	"time"

	"oasis/internal/sim"
)

// MsgType enumerates Raft RPCs.
type MsgType byte

const (
	MsgVoteReq MsgType = iota + 1
	MsgVoteResp
	MsgAppendReq
	MsgAppendResp
)

// Entry is one log record.
type Entry struct {
	Term uint64
	Cmd  []byte
}

// Message is the single wire format for all RPCs (unused fields zero).
type Message struct {
	Type     MsgType
	From, To int
	Term     uint64

	// Vote request/response.
	LastLogIndex uint64
	LastLogTerm  uint64
	Granted      bool

	// Append request/response.
	PrevIndex    uint64
	PrevTerm     uint64
	Entries      []Entry
	LeaderCommit uint64
	Success      bool
	MatchIndex   uint64
}

// Transport delivers messages between nodes. Send must not block the
// calling process indefinitely; lossy transports are fine (Raft tolerates
// drops).
type Transport interface {
	Send(p *sim.Proc, m Message)
}

// Config tunes timers. Election timeouts are randomized per election in
// [ElectionMin, ElectionMax).
type Config struct {
	ElectionMin  sim.Duration
	ElectionMax  sim.Duration
	Seed         int64 // per-node RNG seed offset for determinism
	ProposeLimit sim.Duration
}

// The leader's replication pacing.
const (
	heartbeat = 5 * time.Millisecond // leader's AppendEntries period
	maxBatch  = 1                    // max entries per AppendEntries: all encodeMessage carries
)

// DefaultConfig uses datacenter-fast timers (the channels deliver in
// microseconds, so tens of milliseconds of election timeout is generous).
func DefaultConfig() Config {
	return Config{
		ElectionMin:  20 * time.Millisecond,
		ElectionMax:  40 * time.Millisecond,
		ProposeLimit: 500 * time.Millisecond,
	}
}

type role int

const (
	follower role = iota
	candidate
	leader
)

// Node is one Raft replica. Create with New, then Start.
type Node struct {
	eng   *sim.Engine
	id    int
	peers []int // all node ids including self
	cfg   Config
	tr    Transport
	apply func(index uint64, cmd []byte)

	inbox *sim.Queue[Message]
	rng   *rand.Rand

	role        role
	currentTerm uint64
	votedFor    int // -1 = none
	log         []Entry
	commitIndex uint64
	lastApplied uint64
	leaderID    int

	votes      map[int]bool
	nextIndex  map[int]uint64
	matchIndex map[int]uint64

	deadline  sim.Duration // next election/heartbeat action
	commitSig *sim.Signal
	stopped   bool

	// Stats.
	Elections  int64
	TermsSeen  uint64
	AppliedCnt int64
}

// New creates a node. peers must list every node id, including id itself.
// apply is invoked exactly once per committed entry, in log order.
func New(eng *sim.Engine, id int, peers []int, tr Transport, apply func(index uint64, cmd []byte), cfg Config) *Node {
	n := &Node{
		eng:        eng,
		id:         id,
		peers:      peers,
		cfg:        cfg,
		tr:         tr,
		apply:      apply,
		inbox:      sim.NewQueue[Message](eng),
		rng:        rand.New(rand.NewSource(cfg.Seed + int64(id)*7919)),
		votedFor:   -1,
		leaderID:   -1,
		votes:      make(map[int]bool),
		nextIndex:  make(map[int]uint64),
		matchIndex: make(map[int]uint64),
		commitSig:  sim.NewSignal(eng),
	}
	return n
}

// ID returns the node id.
func (n *Node) ID() int { return n.id }

// IsLeader reports whether this node currently believes it is the leader.
func (n *Node) IsLeader() bool { return n.role == leader }

// Leader returns the last known leader id (-1 if unknown).
func (n *Node) Leader() int { return n.leaderID }

// Term returns the current term.
func (n *Node) Term() uint64 { return n.currentTerm }

// CommitIndex returns the highest committed log index.
func (n *Node) CommitIndex() uint64 { return n.commitIndex }

// Deliver hands an incoming message to the node (called by transports).
func (n *Node) Deliver(m Message) { n.inbox.Push(m) }

// Stop halts the node (simulating a crash); it stops processing messages.
// The role field is deliberately left as-is — a crashed ex-leader still
// *believes* it is leader, which is exactly the zombie the cluster's term
// checks must fence. Callers scanning for a live leader must therefore
// check Stopped() alongside IsLeader().
func (n *Node) Stop() { n.stopped = true }

// Stopped reports whether the node is crashed (stopped, not restarted).
func (n *Node) Stopped() bool { return n.stopped }

// Restart revives a stopped node as a follower (volatile state reset, log
// retained — we model a process restart with durable log, as Raft assumes).
func (n *Node) Restart() {
	n.stopped = false
	n.role = follower
	n.votes = make(map[int]bool)
	n.resetElectionTimer()
}

// Start launches the node's process.
func (n *Node) Start() {
	n.eng.Go(fmt.Sprintf("raft-%d", n.id), n.run)
}

// Propose appends cmd to the replicated log if this node is leader,
// blocking the calling process until the entry commits (or the node loses
// leadership / times out). It returns true on commitment.
func (n *Node) Propose(p *sim.Proc, cmd []byte) bool {
	if n.role != leader || n.stopped {
		return false
	}
	n.log = append(n.log, Entry{Term: n.currentTerm, Cmd: cmd})
	index := uint64(len(n.log))
	n.matchIndex[n.id] = index
	n.broadcastAppends(p)
	deadline := p.Now() + n.cfg.ProposeLimit
	for n.commitIndex < index {
		if n.role != leader || n.stopped {
			return false
		}
		remaining := deadline - p.Now()
		if remaining <= 0 {
			return false
		}
		n.commitSig.WaitTimeout(p, remaining)
	}
	// Committed; entry must still be ours (term check).
	return n.log[index-1].Term == n.currentTerm
}

// run is the node's main loop.
func (n *Node) run(p *sim.Proc) {
	n.resetElectionTimer()
	for {
		wait := n.deadline - p.Now()
		if wait < 0 {
			wait = 0
		}
		m, ok := n.inbox.PopTimeout(p, wait)
		if n.stopped {
			// Crashed: drain and ignore until Restart.
			p.Sleep(heartbeat)
			continue
		}
		if ok {
			n.step(p, m)
		}
		if p.Now() >= n.deadline {
			n.onTimer(p)
		}
	}
}

func (n *Node) resetElectionTimer() {
	span := n.cfg.ElectionMax - n.cfg.ElectionMin
	d := n.cfg.ElectionMin + sim.Duration(n.rng.Int63n(int64(span)))
	n.deadline = n.eng.Now() + d
}

func (n *Node) onTimer(p *sim.Proc) {
	if n.role == leader {
		n.broadcastAppends(p) // heartbeat
		n.deadline = p.Now() + heartbeat
		return
	}
	n.startElection(p)
}

func (n *Node) startElection(p *sim.Proc) {
	n.role = candidate
	n.currentTerm++
	n.votedFor = n.id
	n.leaderID = -1
	n.votes = map[int]bool{n.id: true}
	n.Elections++
	n.resetElectionTimer()
	lastIdx, lastTerm := n.lastLog()
	for _, peer := range n.peers {
		if peer == n.id {
			continue
		}
		n.tr.Send(p, Message{
			Type: MsgVoteReq, From: n.id, To: peer, Term: n.currentTerm,
			LastLogIndex: lastIdx, LastLogTerm: lastTerm,
		})
	}
	n.maybeWinElection(p)
}

func (n *Node) lastLog() (idx, term uint64) {
	if len(n.log) == 0 {
		return 0, 0
	}
	return uint64(len(n.log)), n.log[len(n.log)-1].Term
}

// becomeFollower drops to follower in the given term.
func (n *Node) becomeFollower(term uint64) {
	if term > n.currentTerm {
		n.currentTerm = term
		n.votedFor = -1
	}
	if n.role != follower {
		n.role = follower
	}
	n.resetElectionTimer()
}

func (n *Node) step(p *sim.Proc, m Message) {
	if m.Term > n.currentTerm {
		n.becomeFollower(m.Term)
	}
	switch m.Type {
	case MsgVoteReq:
		n.handleVoteReq(p, m)
	case MsgVoteResp:
		n.handleVoteResp(p, m)
	case MsgAppendReq:
		n.handleAppendReq(p, m)
	case MsgAppendResp:
		n.handleAppendResp(p, m)
	}
	if m.Term > n.TermsSeen {
		n.TermsSeen = m.Term
	}
}

func (n *Node) handleVoteReq(p *sim.Proc, m Message) {
	granted := false
	if m.Term >= n.currentTerm && (n.votedFor == -1 || n.votedFor == m.From) {
		// §5.4.1 election restriction: candidate's log must be at least as
		// up-to-date as ours.
		lastIdx, lastTerm := n.lastLog()
		upToDate := m.LastLogTerm > lastTerm ||
			(m.LastLogTerm == lastTerm && m.LastLogIndex >= lastIdx)
		if upToDate {
			granted = true
			n.votedFor = m.From
			n.resetElectionTimer()
		}
	}
	n.tr.Send(p, Message{
		Type: MsgVoteResp, From: n.id, To: m.From, Term: n.currentTerm, Granted: granted,
	})
}

func (n *Node) handleVoteResp(p *sim.Proc, m Message) {
	if n.role != candidate || m.Term != n.currentTerm || !m.Granted {
		return
	}
	n.votes[m.From] = true
	n.maybeWinElection(p)
}

func (n *Node) maybeWinElection(p *sim.Proc) {
	if n.role != candidate || len(n.votes) <= len(n.peers)/2 {
		return
	}
	n.role = leader
	n.leaderID = n.id
	lastIdx, _ := n.lastLog()
	for _, peer := range n.peers {
		n.nextIndex[peer] = lastIdx + 1
		n.matchIndex[peer] = 0
	}
	n.matchIndex[n.id] = lastIdx
	n.broadcastAppends(p)
	n.deadline = p.Now() + heartbeat
}

func (n *Node) broadcastAppends(p *sim.Proc) {
	for _, peer := range n.peers {
		if peer != n.id {
			n.sendAppend(p, peer)
		}
	}
}

func (n *Node) sendAppend(p *sim.Proc, peer int) {
	next := n.nextIndex[peer]
	if next == 0 {
		next = 1
	}
	prevIdx := next - 1
	var prevTerm uint64
	if prevIdx > 0 && prevIdx <= uint64(len(n.log)) {
		prevTerm = n.log[prevIdx-1].Term
	}
	var entries []Entry
	for i := next; i <= uint64(len(n.log)) && len(entries) < maxBatch; i++ {
		entries = append(entries, n.log[i-1])
	}
	n.tr.Send(p, Message{
		Type: MsgAppendReq, From: n.id, To: peer, Term: n.currentTerm,
		PrevIndex: prevIdx, PrevTerm: prevTerm,
		Entries: entries, LeaderCommit: n.commitIndex,
	})
}

func (n *Node) handleAppendReq(p *sim.Proc, m Message) {
	resp := Message{Type: MsgAppendResp, From: n.id, To: m.From, Term: n.currentTerm}
	if m.Term < n.currentTerm {
		n.tr.Send(p, resp)
		return
	}
	// Valid leader for this term.
	n.leaderID = m.From
	if n.role != follower {
		n.role = follower
	}
	n.resetElectionTimer()
	// Log matching check.
	if m.PrevIndex > 0 {
		if m.PrevIndex > uint64(len(n.log)) || n.log[m.PrevIndex-1].Term != m.PrevTerm {
			n.tr.Send(p, resp) // Success=false: leader backs up
			return
		}
	}
	// Append, truncating conflicts.
	idx := m.PrevIndex
	for _, e := range m.Entries {
		idx++
		if idx <= uint64(len(n.log)) {
			if n.log[idx-1].Term != e.Term {
				n.log = n.log[:idx-1]
				n.log = append(n.log, e)
			}
		} else {
			n.log = append(n.log, e)
		}
	}
	if m.LeaderCommit > n.commitIndex {
		last := uint64(len(n.log))
		n.commitIndex = min64(m.LeaderCommit, last)
		n.applyCommitted()
	}
	resp.Success = true
	resp.MatchIndex = idx
	n.tr.Send(p, resp)
}

func (n *Node) handleAppendResp(p *sim.Proc, m Message) {
	if n.role != leader || m.Term != n.currentTerm {
		return
	}
	if !m.Success {
		if n.nextIndex[m.From] > 1 {
			n.nextIndex[m.From]--
		}
		n.sendAppend(p, m.From)
		return
	}
	if m.MatchIndex > n.matchIndex[m.From] {
		n.matchIndex[m.From] = m.MatchIndex
		n.nextIndex[m.From] = m.MatchIndex + 1
	}
	n.advanceCommit()
	// More to replicate?
	if n.nextIndex[m.From] <= uint64(len(n.log)) {
		n.sendAppend(p, m.From)
	}
}

// advanceCommit commits the highest index replicated on a majority whose
// entry is from the current term (§5.4.2).
func (n *Node) advanceCommit() {
	for idx := uint64(len(n.log)); idx > n.commitIndex; idx-- {
		if n.log[idx-1].Term != n.currentTerm {
			break
		}
		count := 0
		for _, peer := range n.peers {
			if n.matchIndex[peer] >= idx {
				count++
			}
		}
		if count > len(n.peers)/2 {
			n.commitIndex = idx
			n.applyCommitted()
			n.commitSig.Broadcast()
			break
		}
	}
}

func (n *Node) applyCommitted() {
	for n.lastApplied < n.commitIndex {
		n.lastApplied++
		n.AppliedCnt++
		if n.apply != nil {
			n.apply(n.lastApplied, n.log[n.lastApplied-1].Cmd)
		}
	}
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
