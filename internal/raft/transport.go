package raft

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"oasis/internal/core"
	"oasis/internal/cxl"
	"oasis/internal/host"
	"oasis/internal/msgchan"
	"oasis/internal/sim"
)

// ChannelTransport carries Raft RPCs over the Oasis datapath's 64-byte
// message channels (§3.5: "RPCs transmitted over the message channels").
// One RPC fits one channel message: commands are capped at MaxCmdBytes
// (allocator decisions are 7 bytes). The receive side runs a small pump
// process per inbound channel that decodes and delivers.
type ChannelTransport struct {
	eng  *sim.Engine
	id   int
	out  map[int]*msgchan.Sender // by peer id
	node *Node

	Sent, Oversize int64
}

// MaxCmdBytes bounds a log entry's command so an RPC fits a 64-byte slot.
const MaxCmdBytes = 16

// NewChannelTransport creates the transport for node id on the given host.
// Wire it to each peer with ConnectPeer before starting the node.
func NewChannelTransport(eng *sim.Engine, id int) *ChannelTransport {
	return &ChannelTransport{eng: eng, id: id, out: make(map[int]*msgchan.Sender)}
}

// Bind attaches the local node (must be called before any receive pump
// delivers).
func (t *ChannelTransport) Bind(n *Node) { t.node = n }

// ConnectPeer allocates a duplex link of 64 B channels between this node's
// host and the peer's transport/host, and starts receive pumps on both sides.
func (t *ChannelTransport) ConnectPeer(pool *cxl.Pool, self *host.Host, peer *ChannelTransport, peerHost *host.Host) error {
	cfg := msgchan.Config{Slots: 1024, MsgSize: 64, Design: msgchan.DesignInvalidatePrefetched, Category: "raft"}
	selfEnd, peerEnd, err := core.NewDuplexLink(pool, self, peerHost, cfg)
	if err != nil {
		return err
	}
	t.out[peer.id] = selfEnd.Out
	peer.out[t.id] = peerEnd.Out
	t.startPump(selfEnd.In)
	peer.startPump(peerEnd.In)
	return nil
}

// The pumps' idle backoff: 200 ns doubling to a 50 µs cap, far below
// election timescales.
const (
	pumpIdleBase = 200 * time.Nanosecond
	pumpIdleCap  = 50 * time.Microsecond
)

// startPump launches the receive process for one inbound channel.
func (t *ChannelTransport) startPump(rx *msgchan.Receiver) {
	t.eng.Go(fmt.Sprintf("raft-pump-%d", t.id), func(p *sim.Proc) {
		idle := 0 // consecutive empty polls
		for {
			payload, ok := rx.Poll(p)
			if !ok {
				p.Sleep(core.Backoff(pumpIdleBase, pumpIdleCap, idle))
				idle++
				continue
			}
			idle = 0
			m, err := decodeMessage(payload)
			if err != nil {
				continue
			}
			if t.node != nil {
				t.node.Deliver(m)
			}
		}
	})
}

// Send implements Transport.
func (t *ChannelTransport) Send(p *sim.Proc, m Message) {
	s, ok := t.out[m.To]
	if !ok {
		return
	}
	payload, err := encodeMessage(m)
	if err != nil {
		t.Oversize++
		return
	}
	if s.TrySend(p, payload) {
		s.Flush(p)
		t.Sent++
	}
}

// Wire format (63-byte payload): type(1) from(1) to(1) term(8) a(8) b(8)
// c(8) flags(1) cmdLen(1) cmd(<=16). Field meaning depends on type:
//
//	VoteReq:    a=lastLogIndex b=lastLogTerm
//	VoteResp:   flags bit0 = granted
//	AppendReq:  a=prevIndex b=prevTerm c=leaderCommit, one entry max
//	            (entry term reuses term field? no: entryTerm(8) in cmd area)
//	AppendResp: a=matchIndex, flags bit0 = success
func encodeMessage(m Message) ([]byte, error) {
	if len(m.Entries) > 1 {
		return nil, fmt.Errorf("raft: channel transport carries at most one entry per RPC")
	}
	buf := make([]byte, 0, 63)
	buf = append(buf, byte(m.Type), byte(m.From), byte(m.To))
	var w [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		buf = append(buf, w[:]...)
	}
	put(m.Term)
	switch m.Type {
	case MsgVoteReq:
		put(m.LastLogIndex)
		put(m.LastLogTerm)
	case MsgVoteResp:
		flags := byte(0)
		if m.Granted {
			flags = 1
		}
		buf = append(buf, flags)
	case MsgAppendReq:
		put(m.PrevIndex)
		put(m.PrevTerm)
		put(m.LeaderCommit)
		if len(m.Entries) == 1 {
			e := m.Entries[0]
			if len(e.Cmd) > MaxCmdBytes {
				return nil, fmt.Errorf("raft: command of %d bytes exceeds %d", len(e.Cmd), MaxCmdBytes)
			}
			put(e.Term)
			buf = append(buf, byte(len(e.Cmd)))
			buf = append(buf, e.Cmd...)
		} else {
			put(0)
			buf = append(buf, 0xFF) // no entry marker
		}
	case MsgAppendResp:
		put(m.MatchIndex)
		flags := byte(0)
		if m.Success {
			flags = 1
		}
		buf = append(buf, flags)
	}
	return buf, nil
}

// wireFixed is the length of each message type's fixed part: the 11-byte
// header (type, from, to, term) and the type's own fields, up to and
// including an AppendReq's command-length byte.
var wireFixed = [...]int{MsgVoteReq: 27, MsgVoteResp: 12, MsgAppendReq: 44, MsgAppendResp: 20}

// decodeMessage is encodeMessage's inverse on whatever a channel slot holds:
// bytes past the message are ignored (a slot is 63 bytes whatever was sent),
// and a frame too short for its type, or whose command length is more than
// MaxCmdBytes or than the frame has left, is an error.
func decodeMessage(payload []byte) (Message, error) {
	if len(payload) == 0 {
		return Message{}, fmt.Errorf("raft: short message")
	}
	var m Message
	m.Type = MsgType(payload[0])
	if m.Type < MsgVoteReq || m.Type > MsgAppendResp {
		return Message{}, fmt.Errorf("raft: unknown type %d", m.Type)
	}
	if len(payload) < wireFixed[m.Type] {
		return Message{}, fmt.Errorf("raft: short message")
	}
	m.From = int(payload[1])
	m.To = int(payload[2])
	b := payload[3:]
	get := func() uint64 {
		v := binary.LittleEndian.Uint64(b[:8])
		b = b[8:]
		return v
	}
	m.Term = get()
	switch m.Type {
	case MsgVoteReq:
		m.LastLogIndex = get()
		m.LastLogTerm = get()
	case MsgVoteResp:
		m.Granted = b[0]&1 != 0
	case MsgAppendReq:
		m.PrevIndex = get()
		m.PrevTerm = get()
		m.LeaderCommit = get()
		entryTerm := get()
		if n := int(b[0]); n != 0xFF {
			if b = b[1:]; n > MaxCmdBytes || n > len(b) {
				return Message{}, fmt.Errorf("raft: command length %d exceeds %d or the frame", n, MaxCmdBytes)
			}
			m.Entries = []Entry{{Term: entryTerm, Cmd: bytes.Clone(b[:n])}}
		}
	case MsgAppendResp:
		m.MatchIndex = get()
		m.Success = b[0]&1 != 0
	}
	return m, nil
}
