package raft

import (
	"bytes"
	"reflect"
	"testing"
)

// codecFrames is one well-formed message of every type, with the widths of
// its wire fields in order (the 3-byte header and the term first): the table
// the truncation and length-byte cases below are generated from.
var codecFrames = []struct {
	name   string
	msg    Message
	fields []int
}{
	{"vote-req", Message{Type: MsgVoteReq, From: 1, To: 2, Term: 7, LastLogIndex: 42, LastLogTerm: 6},
		[]int{1, 1, 1, 8, 8, 8}},
	{"vote-resp", Message{Type: MsgVoteResp, From: 2, To: 1, Term: 7, Granted: true},
		[]int{1, 1, 1, 8, 1}},
	{"append-req", Message{Type: MsgAppendReq, From: 0, To: 1, Term: 9, PrevIndex: 3, PrevTerm: 8, LeaderCommit: 2,
		Entries: []Entry{{Term: 9, Cmd: []byte("0123456789abcdef")}}},
		[]int{1, 1, 1, 8, 8, 8, 8, 8, 1, MaxCmdBytes}},
	{"heartbeat", Message{Type: MsgAppendReq, From: 0, To: 1, Term: 9, LeaderCommit: 5},
		[]int{1, 1, 1, 8, 8, 8, 8, 8, 1}},
	{"append-resp", Message{Type: MsgAppendResp, From: 1, To: 0, Term: 9, Success: true, MatchIndex: 4},
		[]int{1, 1, 1, 8, 8, 1}},
}

// cmdLenAt is where an AppendReq's command-length byte sits on the wire.
const cmdLenAt = 3 + 5*8

// slot pads a frame to the 63 bytes a channel slot delivers.
func slot(frame []byte) []byte { return append(frame, make([]byte, 63-len(frame))...) }

func mustEncode(t testing.TB, m Message) []byte {
	t.Helper()
	b, err := encodeMessage(m)
	if err != nil {
		t.Fatalf("encode %+v: %v", m, err)
	}
	return b
}

// Every strict prefix of a frame that ends on a field boundary is an error —
// never a panic, never a message made of whatever bytes came next — and the
// whole frame, alone or padded to a slot, is the message that was encoded.
func TestCodecShortReads(t *testing.T) {
	for _, tc := range codecFrames {
		frame := mustEncode(t, tc.msg)
		cut := 0
		for _, w := range append([]int{0}, tc.fields...) {
			cut += w
			if cut == len(frame) {
				break
			}
			if m, err := decodeMessage(frame[:cut:cut]); err == nil {
				t.Errorf("%s cut at byte %d of %d: decoded %+v, want an error", tc.name, cut, len(frame), m)
			}
		}
		if cut != len(frame) {
			t.Errorf("%s: field widths sum to %d, the frame is %d bytes", tc.name, cut, len(frame))
		}
		for _, whole := range [][]byte{frame, slot(frame)} {
			if got, err := decodeMessage(whole); err != nil || !reflect.DeepEqual(got, tc.msg) {
				t.Errorf("%s (%d bytes): decoded %+v, %v, want %+v", tc.name, len(whole), got, err, tc.msg)
			}
		}
	}
	// The two shapes that used to take the process down.
	if _, err := decodeMessage([]byte{byte(MsgVoteReq), 1, 2, 0, 0, 0, 0, 0, 0, 0, 7}); err == nil {
		t.Error("an 11-byte vote request (header only) decoded")
	}
	long := slot(mustEncode(t, codecFrames[2].msg))
	long[cmdLenAt] = 200
	if _, err := decodeMessage(long); err == nil {
		t.Error("a command length of 200 in a 63-byte frame decoded")
	}
}

// A command's length byte is believed only up to MaxCmdBytes and only as far
// as the frame goes; 0xFF alone means "no entry". What encode refuses —
// an oversized command, a second entry — is refused, not cut to fit.
func TestCodecCommandLength(t *testing.T) {
	for _, tc := range []struct {
		n       byte
		entries int // -1: an error
		cmdLen  int
	}{
		{0, 1, 0},
		{MaxCmdBytes, 1, MaxCmdBytes},
		{MaxCmdBytes + 1, -1, 0},
		{0xFE, -1, 0},
		{0xFF, 0, 0},
	} {
		frame := slot(mustEncode(t, codecFrames[2].msg))
		frame[cmdLenAt] = tc.n
		m, err := decodeMessage(frame)
		switch {
		case tc.entries < 0:
			if err == nil {
				t.Errorf("length byte %#x: decoded %+v, want an error", tc.n, m)
			}
		case err != nil || len(m.Entries) != tc.entries || (tc.entries == 1 && len(m.Entries[0].Cmd) != tc.cmdLen):
			t.Errorf("length byte %#x: decoded %+v, %v, want %d entries with a %d-byte command", tc.n, m, err, tc.entries, tc.cmdLen)
		}
	}
	// A length the frame itself cannot hold, though MaxCmdBytes allows it.
	frame := mustEncode(t, codecFrames[2].msg)
	if m, err := decodeMessage(frame[: len(frame)-1 : len(frame)-1]); err == nil {
		t.Errorf("a 16-byte command cut to 15: decoded %+v, want an error", m)
	}
	for name, m := range map[string]Message{
		"oversized command": {Type: MsgAppendReq, Entries: []Entry{{Cmd: make([]byte, MaxCmdBytes+1)}}},
		"two entries":       {Type: MsgAppendReq, Entries: []Entry{{Term: 1}, {Term: 2}}},
	} {
		if b, err := encodeMessage(m); err == nil {
			t.Errorf("%s: encoded to %d bytes, want an error", name, len(b))
		}
	}
}

// FuzzRaftCodec: decodeMessage never panics, whatever a channel slot holds;
// what it accepts re-encodes, into one slot; and decode∘encode is a fixpoint —
// the re-encoded frame decodes to the same message and encodes to the same
// bytes. Seeded with every frame of the table cut at every field boundary,
// bare and padded, and the command-length edge values.
func FuzzRaftCodec(f *testing.F) {
	for _, tc := range codecFrames {
		frame, err := encodeMessage(tc.msg)
		if err != nil {
			f.Fatal(err)
		}
		cut := 0
		for _, w := range append([]int{0}, tc.fields...) {
			cut += w
			f.Add(frame[:cut:cut])
		}
		f.Add(slot(frame))
	}
	for _, n := range []byte{0, MaxCmdBytes, MaxCmdBytes + 1, 0xFE, 0xFF} {
		frame := slot(mustEncode(f, codecFrames[2].msg))
		frame[cmdLenAt] = n
		f.Add(frame)
	}
	f.Add(bytes.Repeat([]byte{0xFF}, 63))
	f.Fuzz(func(t *testing.T, frame []byte) {
		m, err := decodeMessage(frame)
		if err != nil {
			return
		}
		wire, err := encodeMessage(m)
		if err != nil || len(wire) > 63 {
			t.Fatalf("decoded %+v re-encodes to %d bytes, %v", m, len(wire), err)
		}
		again, err := decodeMessage(wire)
		if err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("decode∘encode moved the message:\n got %+v, %v\nwant %+v", again, err, m)
		}
		if wire2 := mustEncode(t, again); !bytes.Equal(wire, wire2) {
			t.Fatalf("encode∘decode moved the frame:\n got %x\nwant %x", wire2, wire)
		}
	})
}
