package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"oasis"
	"oasis/internal/netstack"
	"oasis/internal/ssd"
	"oasis/internal/storengine"
)

// store_mixed: one pod of 4 hosts, 2 NICs, 2 SSDs; 4 instances, each with a
// 16 Ki-block volume and 4 server workers that turn one UDP request into one
// 4 KiB Volume.Read or Volume.Write; 16 closed-loop clients.
const (
	storeHosts        = 4
	storeVolBlocks    = 16 << 10
	storeLBAs         = 4096 // working set per instance
	storeWorkers      = 4    // server workers, and clients, per instance
	storeReadPct      = 70
	storePort         = 9000
	storeReplyTimeout = 500 * time.Microsecond
)

// A request is 17 bytes: id, LBA, opcode; a write carries its id as the
// block's stamp. A reply is 24 bytes: id, the stamp found in (or written
// to) the block, and a hash of the whole 4 KiB block, so the client checks
// all of the data without shipping it.
const (
	storeOpRead  = 0
	storeOpWrite = 1
	storeReqLen  = 17
	storeRepLen  = 24
)

// blockFor is the 4 KiB content a write with this stamp stores.
func blockFor(stamp uint64) []byte {
	b := make([]byte, ssd.BlockSize)
	x := stamp
	for i := 0; i < len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], x)
		x = splitmix64(x)
	}
	return b
}

// blockHash is FNV-1a over the block.
func blockHash(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// storeWorker serves requests against the instance's volume. Under the
// "stale-read" sabotage it answers reads as if the block were never
// written.
func storeWorker(r *rep, conn *netstack.UDPConn, vol *storengine.Volume) func(p *oasis.Proc) {
	return func(p *oasis.Proc) {
		reply := make([]byte, storeRepLen)
		vol.WaitReady(p, time.Millisecond)
		for {
			dg := conn.Recv(p)
			if len(dg.Data) != storeReqLen {
				continue
			}
			id := binary.LittleEndian.Uint64(dg.Data)
			lba := binary.LittleEndian.Uint64(dg.Data[8:])
			var block []byte
			var err error
			if dg.Data[16] == storeOpWrite {
				block = blockFor(id)
				err = vol.Write(p, lba, block)
			} else {
				block, err = vol.Read(p, lba, 1)
				if r.sabotage == "stale-read" {
					block = make([]byte, ssd.BlockSize)
				}
			}
			if err != nil {
				continue // no reply: the client times out and counts a failure
			}
			copy(reply, dg.Data[:8])
			copy(reply[8:], block[:8])
			binary.LittleEndian.PutUint64(reply[16:], blockHash(block))
			if conn.SendTo(p, dg.Src, dg.SrcPort, reply) != nil {
				return
			}
		}
	}
}

// storeClient issues seeded reads and writes over its own quarter of the
// instance's LBAs, so with one op outstanding its record of the last acked
// write per LBA is exact.
func storeClient(p *oasis.Proc, r *rep, client *oasis.Client, server netstack.IP, idx int,
	warmup, window time.Duration, st *closedLoopStats) {
	conn, err := client.Stack.ListenUDP(0)
	if err != nil {
		return
	}
	gen := newRNG(r.seed, uint64(idx))
	acked := make(map[uint64]uint64) // LBA -> stamp of the last acked write
	zeroHash := blockHash(make([]byte, ssd.BlockSize))
	req := make([]byte, storeReqLen)
	slice := uint64(idx % storeWorkers)
	p.Sleep(warmup)
	start := p.Now()
	for seq := uint64(1); p.Now()-start < window; seq++ {
		id := uint64(idx)<<40 | seq
		lba := uint64(gen.intn(storeLBAs/storeWorkers))*storeWorkers + slice
		op := byte(storeOpRead)
		if gen.intn(100) >= storeReadPct {
			op = storeOpWrite
		}
		binary.LittleEndian.PutUint64(req, id)
		binary.LittleEndian.PutUint64(req[8:], lba)
		req[16] = op
		t0 := p.Now()
		measured := seq > 1 // the first op resolves ARP
		if measured {
			st.attempted++
		}
		if conn.SendTo(p, server, storePort, req) != nil {
			continue
		}
		reply, ok := awaitDatagram(p, conn, id, storeReplyTimeout)
		if !ok || len(reply) != storeRepLen {
			if op == storeOpWrite {
				delete(acked, lba) // unknown whether it landed; never happens in a healthy run
			}
			continue
		}
		stamp, hash := binary.LittleEndian.Uint64(reply[8:]), binary.LittleEndian.Uint64(reply[16:])
		wantStamp, wantHash := id, zeroHash
		if op == storeOpRead {
			wantStamp = acked[lba]
		}
		if wantStamp != 0 {
			wantHash = blockHash(blockFor(wantStamp))
		}
		if stamp != wantStamp || hash != wantHash {
			st.corrupt++
			continue
		}
		if op == storeOpWrite {
			acked[lba] = id
		}
		if measured {
			st.lat = append(st.lat, p.Now()-t0)
		}
	}
}

func runStoreMixed(r *rep) outcome {
	var out outcome
	warmup := 400 * time.Microsecond // NIC allocation and volume registration
	window := r.pick(12*time.Millisecond, time.Millisecond)
	deadline := warmup + window + storeReplyTimeout + 100*time.Microsecond

	var pod *oasis.Pod
	insts := make([]*oasis.Instance, storeHosts)
	vols := make([]*storengine.Volume, storeHosts)
	clients := make([]*oasis.Client, storeHosts*storeWorkers)
	r.phase(phaseBuild, func() {
		pod = oasis.NewPod(oasis.DefaultConfig())
		for h := 0; h < storeHosts; h++ {
			pod.AddHost()
		}
		pod.AddNIC(pod.Hosts[0], false)
		pod.AddNIC(pod.Hosts[1], false)
		ssds := []*oasis.SSDDev{
			pod.AddSSD(pod.Hosts[2], 2*storeVolBlocks),
			pod.AddSSD(pod.Hosts[3], 2*storeVolBlocks),
		}
		for h := range insts {
			insts[h] = pod.AddInstance(pod.Hosts[h], oasis.IP(10, 0, 0, byte(10+h)))
			vols[h] = pod.AddVolume(insts[h], ssds[h%2].ID, storeVolBlocks)
		}
		for i := range clients {
			clients[i] = pod.AddClient(oasis.IP(10, 0, 99, byte(1+i)))
		}
	})
	r.phase(phaseStart, pod.Start)

	stats := make([]closedLoopStats, len(clients))
	r.phase(phaseSpawn, func() {
		for h, inst := range insts {
			inst.RequestAllocation()
			conn, err := inst.Stack.ListenUDP(storePort)
			if err != nil {
				panic(err)
			}
			for w := 0; w < storeWorkers; w++ {
				pod.Go(fmt.Sprintf("store%d-%d", h, w), storeWorker(r, conn, vols[h]))
				idx := h*storeWorkers + w
				client, st, server := clients[idx], &stats[idx], inst.IPAddr()
				client.Go(fmt.Sprintf("client%d", idx), func(p *oasis.Proc) {
					storeClient(p, r, client, server, idx, warmup, window, st)
				})
			}
		}
	})
	r.phase(phaseRun, func() { pod.Run(deadline) })
	r.phase(phaseSnapshot, func() { out.snaps = append(out.snaps, pod.Stats()) })
	r.phase(phaseShutdown, pod.Shutdown)

	for i := range stats {
		out.attempted += stats[i].attempted
		out.lat = append(out.lat, stats[i].lat...)
		if stats[i].corrupt > 0 {
			out.errorf("client %d: %d replies contradict its acked writes", i, stats[i].corrupt)
		}
	}
	out.window = window
	return out
}
