// Package instance provides the application layer that runs inside
// container instances: a UDP echo server, a generic request/response (RPC)
// server with a configurable service time, and a memcached-style key-value
// store that can persist its contents to a pooled SSD volume through the
// storage engine — exercising both Oasis engines from one workload.
//
// Applications are written against the instance's user-level network stack
// (netstack) and, for persistence, any block device with the storage
// engine's Volume signature; they do not know whether their NIC or SSD is
// local or pooled — which is the paper's point.
package instance

import (
	"encoding/binary"
	"fmt"
	"sort"

	"oasis/internal/netstack"
	"oasis/internal/sim"
)

// Echo is the UDP echo server every probe stream and load generator talks
// to: run from the calling process, it answers each datagram on port until a
// send fails.
func Echo(p *sim.Proc, stack *netstack.Stack, port uint16) {
	conn, err := stack.ListenUDP(port)
	if err != nil {
		return
	}
	for {
		dg := conn.Recv(p)
		if conn.SendTo(p, dg.Src, dg.SrcPort, dg.Data) != nil {
			return
		}
	}
}

// RRConfig describes a request/response service (a web application model).
type RRConfig struct {
	Service  sim.Duration // per-request compute time
	RespSize int          // response payload bytes
}

// ServeRR runs a length-prefixed TCP request/response server: each request
// is a 4-byte little-endian length plus body; the response likewise.
func ServeRR(eng *sim.Engine, stack *netstack.Stack, port uint16, cfg RRConfig) error {
	l, err := stack.ListenTCP(port)
	if err != nil {
		return err
	}
	eng.Go(stack.Name()+"/rr", func(p *sim.Proc) {
		for {
			conn := l.Accept(p)
			eng.Go(stack.Name()+"/rr-conn", func(p *sim.Proc) {
				resp := eng.Bufs().Get(4 + cfg.RespSize)
				defer eng.Bufs().Put(resp)
				binary.LittleEndian.PutUint32(resp, uint32(cfg.RespSize))
				clear(resp[4:]) // recycled buffers must carry a zeroed body
				for {
					hdr, err := conn.Read(p, 4)
					if err != nil {
						return
					}
					n := int(binary.LittleEndian.Uint32(hdr))
					if _, err := conn.Read(p, n); err != nil {
						return
					}
					p.Sleep(cfg.Service)
					if conn.Send(p, resp) != nil {
						return
					}
				}
			})
		}
	})
	return nil
}

// RRCall performs one request/response exchange on an established
// connection, returning the response body.
func RRCall(p *sim.Proc, conn *netstack.TCPConn, reqSize int) ([]byte, error) {
	req := p.Engine().Bufs().Get(4 + reqSize)
	binary.LittleEndian.PutUint32(req, uint32(reqSize))
	clear(req[4:]) // recycled buffers must carry a zeroed body
	err := conn.Send(p, req)
	p.Engine().Bufs().Put(req) // Send copied what it needed
	if err != nil {
		return nil, err
	}
	hdr, err := conn.Read(p, 4)
	if err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	return conn.Read(p, n)
}

// --- memcached-style key-value store ---

// KV command opcodes and status codes.
const (
	kvGet = 'G'
	kvSet = 'S'
	kvDel = 'D'

	KVOk       = 0
	KVNotFound = 1
	KVError    = 2
)

// kvLimits bound the wire format.
const (
	MaxKeyLen = 250 // memcached's limit
	// MaxValueLen fills one value slot exactly: valueBlocks blocks minus
	// the 4-byte length header.
	MaxValueLen = valueBlocks*blockSize - 4
)

// Store is the in-memory table with optional write-through persistence.
type Store struct {
	data map[string][]byte
	dev  BlockDev // nil = memory-only
	svc  sim.Duration

	// persistence layout bookkeeping
	slots   map[string]uint64 // key -> value LBA
	nextLBA uint64

	// Stats.
	Gets, Sets, Dels, Hits, Misses int64
}

// BlockDev is the slice of the storage engine's Volume API the store needs;
// *storengine.Volume satisfies it.
type BlockDev interface {
	Read(p *sim.Proc, lba uint64, nblocks int) ([]byte, error)
	Write(p *sim.Proc, lba uint64, data []byte) error
	Blocks() uint64
}

const blockSize = 4096

// Layout on the volume: block 0..indexBlocks-1 hold the serialized index;
// values start after them, one slot of valueBlocks each.
const (
	indexBlocks = 64
	valueBlocks = 16 // 64 KiB slots (MaxValueLen)
)

// NewStore creates a store. dev may be nil for a memory-only cache; svc is
// the per-operation service time (memcached-class: a few µs).
func NewStore(dev BlockDev, svc sim.Duration) *Store {
	return &Store{
		data:    make(map[string][]byte),
		dev:     dev,
		svc:     svc,
		slots:   make(map[string]uint64),
		nextLBA: indexBlocks,
	}
}

// Get returns the value (nil, false if absent).
func (s *Store) Get(p *sim.Proc, key string) ([]byte, bool) {
	p.Sleep(s.svc)
	s.Gets++
	v, ok := s.data[key]
	if ok {
		s.Hits++
	} else {
		s.Misses++
	}
	return v, ok
}

// Set stores the value, writing through to the volume when configured.
func (s *Store) Set(p *sim.Proc, key string, value []byte) error {
	if len(key) > MaxKeyLen || len(value) > MaxValueLen {
		return fmt.Errorf("instance: key/value too large")
	}
	p.Sleep(s.svc)
	s.Sets++
	cp := make([]byte, len(value))
	copy(cp, value)
	s.data[key] = cp
	if s.dev == nil {
		return nil
	}
	lba, ok := s.slots[key]
	if !ok {
		lba = s.nextLBA
		if lba+valueBlocks > s.dev.Blocks() {
			return fmt.Errorf("instance: volume full")
		}
		s.nextLBA += valueBlocks
		s.slots[key] = lba
	}
	// Value slot: 4-byte length + bytes, padded to whole blocks.
	buf := make([]byte, pad(4+len(value)))
	binary.LittleEndian.PutUint32(buf, uint32(len(value)))
	copy(buf[4:], value)
	if err := s.dev.Write(p, lba, buf); err != nil {
		return err
	}
	return s.writeIndex(p)
}

// Del removes the key (persisted via the index).
func (s *Store) Del(p *sim.Proc, key string) error {
	p.Sleep(s.svc)
	s.Dels++
	if _, ok := s.data[key]; !ok {
		return nil
	}
	delete(s.data, key)
	delete(s.slots, key)
	if s.dev == nil {
		return nil
	}
	return s.writeIndex(p)
}

// Len returns the number of live keys.
func (s *Store) Len() int { return len(s.data) }

// writeIndex serializes (count, then per key: keyLen u16, key, lba u64)
// into the index region.
func (s *Store) writeIndex(p *sim.Proc) error {
	buf := make([]byte, 4)
	binary.LittleEndian.PutUint32(buf, uint32(len(s.slots)))
	keys := make([]string, 0, len(s.slots))
	for key := range s.slots {
		keys = append(keys, key)
	}
	sort.Strings(keys) // deterministic serialization
	for _, key := range keys {
		lba := s.slots[key]
		var kh [2]byte
		binary.LittleEndian.PutUint16(kh[:], uint16(len(key)))
		buf = append(buf, kh[:]...)
		buf = append(buf, key...)
		var lh [8]byte
		binary.LittleEndian.PutUint64(lh[:], lba)
		buf = append(buf, lh[:]...)
	}
	if len(buf) > indexBlocks*blockSize {
		return fmt.Errorf("instance: index overflow (%d keys)", len(s.slots))
	}
	padded := make([]byte, pad(len(buf)))
	copy(padded, buf)
	// The storage engine caps a single request's span; split the index
	// write into slot-sized chunks.
	for off := 0; off < len(padded); off += valueBlocks * blockSize {
		end := off + valueBlocks*blockSize
		if end > len(padded) {
			end = len(padded)
		}
		if err := s.dev.Write(p, uint64(off/blockSize), padded[off:end]); err != nil {
			return err
		}
	}
	return nil
}

// Recover rebuilds the in-memory table from the volume after a restart —
// the ephemeral-local-SSD durability model (§3.4: data survives soft
// reboots).
func (s *Store) Recover(p *sim.Proc) error {
	if s.dev == nil {
		return fmt.Errorf("instance: no volume to recover from")
	}
	// Read the index region in request-sized chunks.
	idx := make([]byte, 0, indexBlocks*blockSize)
	for blk := uint64(0); blk < indexBlocks; blk += valueBlocks {
		chunk, err := s.dev.Read(p, blk, valueBlocks)
		if err != nil {
			return err
		}
		idx = append(idx, chunk...)
	}
	count := binary.LittleEndian.Uint32(idx)
	off := 4
	s.data = make(map[string][]byte)
	s.slots = make(map[string]uint64)
	maxLBA := uint64(indexBlocks)
	for i := uint32(0); i < count; i++ {
		if off+2 > len(idx) {
			return fmt.Errorf("instance: truncated index")
		}
		kl := int(binary.LittleEndian.Uint16(idx[off:]))
		off += 2
		if off+kl+8 > len(idx) {
			return fmt.Errorf("instance: truncated index entry")
		}
		key := string(idx[off : off+kl])
		off += kl
		lba := binary.LittleEndian.Uint64(idx[off:])
		off += 8
		slot, err := s.dev.Read(p, lba, valueBlocks)
		if err != nil {
			return err
		}
		vl := int(binary.LittleEndian.Uint32(slot))
		if vl > MaxValueLen || 4+vl > len(slot) {
			return fmt.Errorf("instance: corrupt value slot for %q", key)
		}
		v := make([]byte, vl)
		copy(v, slot[4:4+vl])
		s.data[key] = v
		s.slots[key] = lba
		if lba+valueBlocks > maxLBA {
			maxLBA = lba + valueBlocks
		}
	}
	s.nextLBA = maxLBA
	return nil
}

func pad(n int) int {
	return (n + blockSize - 1) / blockSize * blockSize
}

// --- KV wire protocol (TCP, length-prefixed) ---
//
// request : op(1) keyLen(2) key [valLen(4) value]      (valLen for Set)
// response: status(1) [valLen(4) value]                (value for Get hit)

// ServeKV runs the KV server on the stack.
func ServeKV(eng *sim.Engine, stack *netstack.Stack, port uint16, store *Store) error {
	l, err := stack.ListenTCP(port)
	if err != nil {
		return err
	}
	eng.Go(stack.Name()+"/kv", func(p *sim.Proc) {
		for {
			conn := l.Accept(p)
			eng.Go(stack.Name()+"/kv-conn", func(p *sim.Proc) {
				kvServeConn(p, conn, store)
			})
		}
	})
	return nil
}

func kvServeConn(p *sim.Proc, conn *netstack.TCPConn, store *Store) {
	for {
		hdr, err := conn.Read(p, 3)
		if err != nil {
			return
		}
		op := hdr[0]
		keyLen := int(binary.LittleEndian.Uint16(hdr[1:3]))
		if keyLen == 0 || keyLen > MaxKeyLen {
			return // protocol violation: drop the connection
		}
		keyB, err := conn.Read(p, keyLen)
		if err != nil {
			return
		}
		key := string(keyB)
		switch op {
		case kvGet:
			if v, ok := store.Get(p, key); ok {
				resp := p.Engine().Bufs().Get(5 + len(v))
				resp[0] = KVOk
				binary.LittleEndian.PutUint32(resp[1:5], uint32(len(v)))
				copy(resp[5:], v)
				err := conn.Send(p, resp)
				p.Engine().Bufs().Put(resp) // Send copied what it needed
				if err != nil {
					return
				}
			} else if conn.Send(p, []byte{KVNotFound}) != nil {
				return
			}
		case kvSet:
			vh, err := conn.Read(p, 4)
			if err != nil {
				return
			}
			vl := int(binary.LittleEndian.Uint32(vh))
			if vl > MaxValueLen {
				return
			}
			value, err := conn.Read(p, vl)
			if err != nil {
				return
			}
			status := byte(KVOk)
			if store.Set(p, key, value) != nil {
				status = KVError
			}
			if conn.Send(p, []byte{status}) != nil {
				return
			}
		case kvDel:
			status := byte(KVOk)
			if store.Del(p, key) != nil {
				status = KVError
			}
			if conn.Send(p, []byte{status}) != nil {
				return
			}
		default:
			return
		}
	}
}

// KVClient issues KV operations over one TCP connection.
type KVClient struct {
	conn *netstack.TCPConn
}

// DialKV connects a client to a KV server.
func DialKV(p *sim.Proc, stack *netstack.Stack, server netstack.IP, port uint16) (*KVClient, error) {
	conn, err := stack.DialTCP(p, server, port)
	if err != nil {
		return nil, err
	}
	return &KVClient{conn: conn}, nil
}

// Get fetches a key; ok=false means not found.
func (c *KVClient) Get(p *sim.Proc, key string) ([]byte, bool, error) {
	if err := c.send(p, kvGet, key, nil); err != nil {
		return nil, false, err
	}
	st, err := c.conn.Read(p, 1)
	if err != nil {
		return nil, false, err
	}
	switch st[0] {
	case KVOk:
		vh, err := c.conn.Read(p, 4)
		if err != nil {
			return nil, false, err
		}
		v, err := c.conn.Read(p, int(binary.LittleEndian.Uint32(vh)))
		return v, true, err
	case KVNotFound:
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("instance: server error")
	}
}

// Set stores a key.
func (c *KVClient) Set(p *sim.Proc, key string, value []byte) error {
	if err := c.send(p, kvSet, key, value); err != nil {
		return err
	}
	st, err := c.conn.Read(p, 1)
	if err != nil {
		return err
	}
	if st[0] != KVOk {
		return fmt.Errorf("instance: set failed")
	}
	return nil
}

// Del removes a key.
func (c *KVClient) Del(p *sim.Proc, key string) error {
	if err := c.send(p, kvDel, key, nil); err != nil {
		return err
	}
	st, err := c.conn.Read(p, 1)
	if err != nil {
		return err
	}
	if st[0] != KVOk {
		return fmt.Errorf("instance: del failed")
	}
	return nil
}

// Close tears the connection down.
func (c *KVClient) Close(p *sim.Proc) { c.conn.Close(p) }

func (c *KVClient) send(p *sim.Proc, op byte, key string, value []byte) error {
	n := 3 + len(key)
	if op == kvSet {
		n += 4 + len(value)
	}
	msg := p.Engine().Bufs().Get(n)
	msg[0] = op
	binary.LittleEndian.PutUint16(msg[1:3], uint16(len(key)))
	copy(msg[3:], key)
	if op == kvSet {
		binary.LittleEndian.PutUint32(msg[3+len(key):], uint32(len(value)))
		copy(msg[7+len(key):], value)
	}
	err := c.conn.Send(p, msg)
	p.Engine().Bufs().Put(msg) // Send copied what it needed
	return err
}
