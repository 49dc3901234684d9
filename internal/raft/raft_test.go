package raft

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"oasis/internal/cxl"
	"oasis/internal/host"
	"oasis/internal/sim"
)

// LocalTransport delivers messages directly between nodes with a
// configurable one-way delay and optional per-link disconnection: the
// in-memory transport these tests run clusters on. The pod's replicas talk
// over ChannelTransport.
type LocalTransport struct {
	eng   *sim.Engine
	delay sim.Duration
	nodes map[int]*Node
	down  map[[2]int]bool // directed (from,to) cut

	Sent, Dropped int64
	MaxEntries    int // the most log entries one delivered message carried
}

// NewLocalTransport creates a hub with the given one-way delivery delay.
func NewLocalTransport(eng *sim.Engine, delay sim.Duration) *LocalTransport {
	return &LocalTransport{
		eng:   eng,
		delay: delay,
		nodes: make(map[int]*Node),
		down:  make(map[[2]int]bool),
	}
}

// Register attaches a node to the hub.
func (t *LocalTransport) Register(n *Node) { t.nodes[n.ID()] = n }

// SetLink cuts or restores the directed link from -> to.
func (t *LocalTransport) SetLink(from, to int, up bool) {
	t.down[[2]int{from, to}] = !up
}

// Isolate cuts all links to and from a node (models a partition).
func (t *LocalTransport) Isolate(id int, isolated bool) {
	for other := range t.nodes {
		if other == id {
			continue
		}
		t.SetLink(id, other, !isolated)
		t.SetLink(other, id, !isolated)
	}
}

// Send implements Transport.
func (t *LocalTransport) Send(p *sim.Proc, m Message) {
	if t.down[[2]int{m.From, m.To}] {
		t.Dropped++
		return
	}
	dst, ok := t.nodes[m.To]
	if !ok {
		t.Dropped++
		return
	}
	t.Sent++
	t.MaxEntries = max(t.MaxEntries, len(m.Entries))
	t.eng.After(t.delay, func() { dst.Deliver(m) })
}

// cluster spins up n nodes on a LocalTransport.
type cluster struct {
	eng   *sim.Engine
	tr    *LocalTransport
	nodes []*Node
	// applied[i] is the command sequence node i's state machine saw.
	applied [][]([]byte)
}

func newCluster(n int, seed int64) *cluster {
	eng := sim.New()
	c := &cluster{eng: eng, tr: NewLocalTransport(eng, 50*time.Microsecond)}
	c.applied = make([][]([]byte), n)
	var ids []int
	for i := 0; i < n; i++ {
		ids = append(ids, i)
	}
	cfg := DefaultConfig()
	cfg.Seed = seed
	for i := 0; i < n; i++ {
		i := i
		node := New(eng, i, ids, c.tr, func(_ uint64, cmd []byte) {
			cp := make([]byte, len(cmd))
			copy(cp, cmd)
			c.applied[i] = append(c.applied[i], cp)
		}, cfg)
		c.tr.Register(node)
		c.nodes = append(c.nodes, node)
	}
	for _, node := range c.nodes {
		node.Start()
	}
	return c
}

// leader returns the unique live leader, or nil.
func (c *cluster) leader() *Node {
	var l *Node
	for _, n := range c.nodes {
		if n.IsLeader() && !n.stopped {
			if l != nil && l.Term() == n.Term() {
				return nil // two leaders in one term: safety violation
			}
			if l == nil || n.Term() > l.Term() {
				l = n
			}
		}
	}
	return l
}

func TestElectsExactlyOneLeader(t *testing.T) {
	c := newCluster(3, 1)
	c.eng.RunUntil(200 * time.Millisecond)
	l := c.leader()
	if l == nil {
		t.Fatal("no leader after 200ms")
	}
	// Every node agrees on the leader.
	for _, n := range c.nodes {
		if n.Leader() != l.ID() {
			t.Fatalf("node %d thinks leader is %d, want %d", n.ID(), n.Leader(), l.ID())
		}
	}
	c.eng.Shutdown()
}

func TestReplicationAppliesInOrderEverywhere(t *testing.T) {
	c := newCluster(3, 2)
	committed := 0
	c.eng.Go("proposer", func(p *sim.Proc) {
		p.Sleep(100 * time.Millisecond) // allow election
		l := c.leader()
		if l == nil {
			t.Error("no leader")
			return
		}
		for i := 0; i < 20; i++ {
			cmd := []byte(fmt.Sprintf("cmd-%02d", i))
			if !l.Propose(p, cmd) {
				t.Errorf("propose %d failed", i)
				return
			}
			committed++
		}
	})
	c.eng.RunUntil(2 * time.Second)
	if committed != 20 {
		t.Fatalf("committed %d/20", committed)
	}
	// Allow followers to apply via subsequent heartbeats.
	for i, seq := range c.applied {
		if len(seq) != 20 {
			t.Fatalf("node %d applied %d entries, want 20", i, len(seq))
		}
		for j, cmd := range seq {
			want := []byte(fmt.Sprintf("cmd-%02d", j))
			if !bytes.Equal(cmd, want) {
				t.Fatalf("node %d applied %q at %d, want %q", i, cmd, j, want)
			}
		}
	}
	c.eng.Shutdown()
}

func TestLeaderFailureTriggersReelection(t *testing.T) {
	c := newCluster(3, 3)
	var oldLeader, newLeader int
	c.eng.Go("chaos", func(p *sim.Proc) {
		p.Sleep(100 * time.Millisecond)
		l := c.leader()
		if l == nil {
			t.Error("no initial leader")
			return
		}
		oldLeader = l.ID()
		l.Stop()
		p.Sleep(300 * time.Millisecond)
		nl := c.leader()
		if nl == nil {
			t.Error("no new leader after failure")
			return
		}
		newLeader = nl.ID()
	})
	c.eng.RunUntil(time.Second)
	if newLeader == oldLeader {
		t.Fatalf("leadership did not move (still %d)", oldLeader)
	}
	c.eng.Shutdown()
}

func TestRestartedNodeCatchesUp(t *testing.T) {
	c := newCluster(3, 4)
	c.eng.Go("driver", func(p *sim.Proc) {
		p.Sleep(100 * time.Millisecond)
		l := c.leader()
		if l == nil {
			t.Error("no leader")
			return
		}
		// Pick a follower and crash it.
		var victim *Node
		for _, n := range c.nodes {
			if n != l {
				victim = n
				break
			}
		}
		victim.Stop()
		for i := 0; i < 5; i++ {
			if !l.Propose(p, []byte{byte(i)}) {
				t.Errorf("propose %d failed", i)
			}
		}
		victim.Restart()
		p.Sleep(300 * time.Millisecond)
		if victim.CommitIndex() < 5 {
			t.Errorf("restarted node commit=%d, want >=5", victim.CommitIndex())
		}
		// Catching up five entries behind, the follower still gets one per
		// AppendEntries: the channel codec carries no more.
		if c.tr.MaxEntries != 1 {
			t.Errorf("an AppendEntries carried %d entries, want at most 1", c.tr.MaxEntries)
		}
	})
	c.eng.RunUntil(time.Second)
	c.eng.Shutdown()
}

func TestPartitionedLeaderCannotCommit(t *testing.T) {
	c := newCluster(3, 5)
	c.eng.Go("driver", func(p *sim.Proc) {
		p.Sleep(100 * time.Millisecond)
		l := c.leader()
		if l == nil {
			t.Error("no leader")
			return
		}
		c.tr.Isolate(l.ID(), true)
		if l.Propose(p, []byte("doomed")) {
			t.Error("isolated leader committed an entry")
		}
		// The rest elect a new leader and commit there.
		p.Sleep(300 * time.Millisecond)
		nl := c.leader()
		if nl == nil || nl.ID() == l.ID() {
			// l may still believe it leads, but a live majority leader must
			// exist on the other side.
			found := false
			for _, n := range c.nodes {
				if n.ID() != l.ID() && n.IsLeader() {
					found = true
					nl = n
				}
			}
			if !found {
				t.Error("majority side never elected a leader")
				return
			}
		}
		if !nl.Propose(p, []byte("survives")) {
			t.Error("majority leader could not commit")
		}
		// Heal; old leader must step down and converge.
		c.tr.Isolate(l.ID(), false)
		p.Sleep(300 * time.Millisecond)
		if l.IsLeader() && l.Term() <= nl.Term() {
			t.Error("stale leader did not step down after heal")
		}
	})
	c.eng.RunUntil(2 * time.Second)
	// Logs must agree on the committed prefix.
	var ref []([]byte)
	for i, seq := range c.applied {
		if ref == nil && len(seq) > 0 {
			ref = seq
			continue
		}
		m := len(seq)
		if len(ref) < m {
			m = len(ref)
		}
		for j := 0; j < m; j++ {
			if !bytes.Equal(seq[j], ref[j]) {
				t.Fatalf("node %d disagrees at applied index %d", i, j)
			}
		}
	}
	c.eng.Shutdown()
}

func TestFiveNodeClusterCommits(t *testing.T) {
	c := newCluster(5, 6)
	done := false
	c.eng.Go("proposer", func(p *sim.Proc) {
		p.Sleep(150 * time.Millisecond)
		l := c.leader()
		if l == nil {
			t.Error("no leader")
			return
		}
		// Two followers down: still a majority.
		stopped := 0
		for _, n := range c.nodes {
			if n != l && stopped < 2 {
				n.Stop()
				stopped++
			}
		}
		for i := 0; i < 5; i++ {
			if !l.Propose(p, []byte{byte(i)}) {
				t.Errorf("propose %d failed with 3/5 alive", i)
				return
			}
		}
		done = true
	})
	c.eng.RunUntil(2 * time.Second)
	if !done {
		t.Fatal("proposals did not finish")
	}
	c.eng.Shutdown()
}

func TestDeterministicElections(t *testing.T) {
	run := func() (int, uint64) {
		c := newCluster(3, 42)
		c.eng.RunUntil(500 * time.Millisecond)
		l := c.leader()
		if l == nil {
			return -1, 0
		}
		id, term := l.ID(), l.Term()
		c.eng.Shutdown()
		return id, term
	}
	id1, t1 := run()
	id2, t2 := run()
	if id1 != id2 || t1 != t2 {
		t.Fatalf("nondeterministic election: (%d,%d) vs (%d,%d)", id1, t1, id2, t2)
	}
}

func TestChannelTransportEndToEnd(t *testing.T) {
	// Three allocator replicas on three pod hosts, Raft over real 64 B CXL
	// message channels (§3.5).
	eng := sim.New()
	pool := cxl.NewPool(eng, 1<<26, cxl.DefaultParams())
	var hosts []*host.Host
	var trs []*ChannelTransport
	ids := []int{0, 1, 2}
	for i := range ids {
		hosts = append(hosts, host.New(eng, i, fmt.Sprintf("h%d", i), pool, host.DefaultConfig()))
		trs = append(trs, NewChannelTransport(eng, i))
	}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if err := trs[i].ConnectPeer(pool, hosts[i], trs[j], hosts[j]); err != nil {
				t.Fatal(err)
			}
		}
	}
	applied := make([]int, 3)
	var nodes []*Node
	cfg := DefaultConfig()
	cfg.Seed = 7
	for i := range ids {
		i := i
		n := New(eng, i, ids, trs[i], func(_ uint64, cmd []byte) { applied[i]++ }, cfg)
		trs[i].Bind(n)
		nodes = append(nodes, n)
		n.Start()
	}
	committed := 0
	eng.Go("proposer", func(p *sim.Proc) {
		p.Sleep(150 * time.Millisecond)
		var l *Node
		for _, n := range nodes {
			if n.IsLeader() {
				l = n
			}
		}
		if l == nil {
			t.Error("no leader over channel transport")
			return
		}
		for i := 0; i < 10; i++ {
			if !l.Propose(p, []byte("decision")) {
				t.Errorf("propose %d failed", i)
				return
			}
			committed++
		}
	})
	eng.RunUntil(2 * time.Second)
	if committed != 10 {
		t.Fatalf("committed %d/10 over channels", committed)
	}
	for i, a := range applied {
		if a != 10 {
			t.Fatalf("replica %d applied %d/10", i, a)
		}
	}
	eng.Shutdown()
}

func TestMessageCodecRoundTrip(t *testing.T) {
	msgs := []Message{
		{Type: MsgVoteReq, From: 1, To: 2, Term: 7, LastLogIndex: 42, LastLogTerm: 6},
		{Type: MsgVoteResp, From: 2, To: 1, Term: 7, Granted: true},
		{Type: MsgAppendReq, From: 0, To: 1, Term: 9, PrevIndex: 3, PrevTerm: 8,
			LeaderCommit: 2, Entries: []Entry{{Term: 9, Cmd: []byte("0123456789abcdef")}}},
		{Type: MsgAppendReq, From: 0, To: 1, Term: 9, PrevIndex: 0, PrevTerm: 0, LeaderCommit: 5},
		{Type: MsgAppendResp, From: 1, To: 0, Term: 9, Success: true, MatchIndex: 4},
	}
	for i, m := range msgs {
		b, err := encodeMessage(m)
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if len(b) > 63 {
			t.Fatalf("msg %d: %d bytes exceeds 64 B slot payload", i, len(b))
		}
		got, err := decodeMessage(b)
		if err != nil {
			t.Fatalf("msg %d decode: %v", i, err)
		}
		if got.Type != m.Type || got.Term != m.Term || got.From != m.From || got.To != m.To ||
			got.Granted != m.Granted || got.Success != m.Success ||
			got.PrevIndex != m.PrevIndex || got.MatchIndex != m.MatchIndex ||
			len(got.Entries) != len(m.Entries) {
			t.Fatalf("msg %d round trip mismatch:\n got %+v\nwant %+v", i, got, m)
		}
		if len(m.Entries) == 1 && !bytes.Equal(got.Entries[0].Cmd, m.Entries[0].Cmd) {
			t.Fatalf("msg %d entry mismatch", i)
		}
	}
}

func TestOversizedCommandRejected(t *testing.T) {
	m := Message{Type: MsgAppendReq, Entries: []Entry{{Cmd: make([]byte, 17)}}}
	if _, err := encodeMessage(m); err == nil {
		t.Fatal("oversized command accepted")
	}
}

func TestChaosLogMatchingProperty(t *testing.T) {
	// Property (Raft's Log Matching + State Machine Safety): under random
	// crash/restart/partition chaos, every node's applied sequence is a
	// prefix of the longest applied sequence.
	for _, seed := range []int64{10, 20, 30} {
		c := newCluster(3, seed)
		rng := rand.New(rand.NewSource(seed))
		committed := 0
		c.eng.Go("chaos", func(p *sim.Proc) {
			for round := 0; round < 8; round++ {
				p.Sleep(150 * time.Millisecond)
				// Random disruption.
				victim := c.nodes[rng.Intn(len(c.nodes))]
				switch rng.Intn(3) {
				case 0:
					victim.Stop()
					p.Sleep(time.Duration(rng.Intn(100)) * time.Millisecond)
					victim.Restart()
				case 1:
					c.tr.Isolate(victim.ID(), true)
					p.Sleep(time.Duration(rng.Intn(100)) * time.Millisecond)
					c.tr.Isolate(victim.ID(), false)
				}
				p.Sleep(100 * time.Millisecond)
				if l := c.leader(); l != nil {
					if l.Propose(p, []byte{byte(round)}) {
						committed++
					}
				}
			}
		})
		c.eng.RunUntil(5 * time.Second)
		c.eng.Shutdown()
		// Prefix property across all applied sequences.
		longest := 0
		for i := range c.applied {
			if len(c.applied[i]) > longest {
				longest = len(c.applied[i])
			}
		}
		for i := range c.applied {
			for j := range c.applied[i] {
				for k := range c.applied {
					if j < len(c.applied[k]) && !bytes.Equal(c.applied[i][j], c.applied[k][j]) {
						t.Fatalf("seed %d: applied sequences diverge at %d (nodes %d vs %d)", seed, j, i, k)
					}
				}
			}
		}
		if committed == 0 {
			t.Fatalf("seed %d: chaos prevented all commits", seed)
		}
	}
}

func TestAtMostOneLeaderPerTermProperty(t *testing.T) {
	// Election Safety: sample leadership frequently under churn; two
	// leaders in the same term is a protocol violation.
	c := newCluster(5, 99)
	violation := false
	c.eng.Go("observer", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 300; i++ {
			p.Sleep(5 * time.Millisecond)
			leaders := map[uint64][]int{}
			for _, n := range c.nodes {
				if n.IsLeader() {
					leaders[n.Term()] = append(leaders[n.Term()], n.ID())
				}
			}
			for term, ids := range leaders {
				if len(ids) > 1 {
					t.Errorf("term %d has leaders %v", term, ids)
					violation = true
				}
			}
			if i%40 == 20 {
				victim := c.nodes[rng.Intn(len(c.nodes))]
				c.tr.Isolate(victim.ID(), true)
			}
			if i%40 == 35 {
				for _, n := range c.nodes {
					c.tr.Isolate(n.ID(), false)
				}
			}
		}
	})
	c.eng.RunUntil(2 * time.Second)
	c.eng.Shutdown()
	if violation {
		t.Fatal("election safety violated")
	}
}
