package main

import (
	"bytes"
	"encoding/binary"
	"time"

	"oasis"
	"oasis/internal/netstack"
)

// workload is one seeded set of inputs the benchmark runs. run builds the
// system, drives it for the workload's fixed virtual duration through the
// harness phases, verifies every output and returns what the clients saw.
type workload struct {
	name string
	// serial marks a workload whose simulation runs on one engine. Its reps
	// run with GOMAXPROCS=1: the engine hands control between goroutines
	// one at a time, and with a second P the runtime wakes the next one on
	// the other OS thread about as often as not — a futex and, in a VM, a
	// vCPU wake-up each time — which made run_s and cpu_s swing by ±20%
	// from one minute to the next on the 2-vCPU reference box.
	serial bool
	// reference names a workload whose virtual-time results and Stats()
	// digest this one must reproduce for the same seed.
	reference string
	run       func(r *rep) outcome
}

// workloads is the benchmark, in reporting order; BENCHMARK.json and the
// README record why each exists. Virtual durations are constants (never
// scaled at run time), sized so one rep — set-up plus run — takes 1.5–5 s of
// host time on a 2-vCPU box and yields ≥ 1 100 samples.
var workloads = []*workload{
	// 128 mostly idle hosts on the serial engine: what idle-poll elision,
	// lazy host memory and sim heap work would speed up.
	{name: "rack_idle", serial: true, run: func(r *rep) outcome { return runRack(r, false) }},
	// The same rack and inputs on sim.Group partitions: a serial-loop gain
	// that taxes windows and barriers shows here.
	{name: "rack_par", reference: "rack_idle", run: func(r *rep) outcome { return runRack(r, true) }},
	// Two hosts, busy drivers, open loop: bypasses the rack optimisations
	// and puts every datapath layer's per-packet cost on the critical path.
	{name: "echo_ladder", serial: true, run: runEchoLadder},
	// The same core/msgchan machinery driven by storengine and ssd, with
	// writes beside reads.
	{name: "store_mixed", serial: true, run: runStoreMixed},
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// pick chooses a workload's virtual duration: full is what the benchmark
// measures, tiny is the test-size run.
func (r *rep) pick(full, tiny time.Duration) time.Duration {
	if r.tiny {
		return tiny
	}
	return full
}

// splitmix64 is the seed expander every input generator draws from: cheap,
// stateless, and identical across Go releases (math/rand's stream is not
// promised to be).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a splitmix64 stream.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	return &rng{s: splitmix64(uint64(seed)) ^ splitmix64(stream*0x9e3779b97f4a7c15+1)}
}

func (g *rng) next() uint64 {
	g.s += 0x9e3779b97f4a7c15
	return splitmix64(g.s)
}

// intn returns a value in [0, n).
func (g *rng) intn(n int) int { return int(g.next() % uint64(n)) }

// fillPayload writes an echo request into buf: an 8-byte id, then filler
// derived from the id and the seed, so a reply can be checked byte for byte
// without keeping the request.
func fillPayload(buf []byte, seed int64, id uint64) {
	binary.LittleEndian.PutUint64(buf, id)
	x := splitmix64(id ^ uint64(seed))
	for i := 8; i < len(buf); i++ {
		if i%8 == 0 {
			x = splitmix64(x)
		}
		buf[i] = byte(x >> (8 * uint(i%8)))
	}
}

const echoPort = 7

// echoServer answers every datagram with its own payload. Under the
// "corrupt-echo" sabotage it flips one payload bit instead.
func echoServer(r *rep, stack *netstack.Stack) func(p *oasis.Proc) {
	return func(p *oasis.Proc) {
		conn, err := stack.ListenUDP(echoPort)
		if err != nil {
			return
		}
		for {
			dg := conn.Recv(p)
			if r.sabotage == "corrupt-echo" && len(dg.Data) > 8 {
				dg.Data[len(dg.Data)-1] ^= 1
			}
			if conn.SendTo(p, dg.Src, dg.SrcPort, dg.Data) != nil {
				return
			}
		}
	}
}

// closedLoopStats is one closed-loop client's ledger. Each client owns its
// ledger (clients of different pods run on different threads when the rack
// is partitioned); they are merged in client order after the run.
type closedLoopStats struct {
	attempted int64
	lat       []time.Duration
	corrupt   int64
}

// awaitDatagram waits up to timeout for the datagram that begins with id,
// skipping late replies to requests that already timed out.
func awaitDatagram(p *oasis.Proc, conn *netstack.UDPConn, id uint64, timeout time.Duration) ([]byte, bool) {
	deadline := p.Now() + timeout
	for {
		left := deadline - p.Now()
		if left <= 0 {
			return nil, false
		}
		dg, got := conn.RecvTimeout(p, left)
		if !got {
			return nil, false
		}
		if len(dg.Data) >= 8 && binary.LittleEndian.Uint64(dg.Data) == id {
			return dg.Data, true
		}
	}
}

// echoOnce sends request id to the echo server at dst and waits for the
// reply. ok reports a byte-exact echo; corrupt a reply that differs.
func echoOnce(p *oasis.Proc, conn *netstack.UDPConn, dst netstack.IP, buf []byte, seed int64, id uint64,
	timeout time.Duration) (ok, corrupt bool) {
	fillPayload(buf, seed, id)
	if conn.SendTo(p, dst, echoPort, buf) != nil {
		return false, false
	}
	reply, got := awaitDatagram(p, conn, id, timeout)
	if !got {
		return false, false
	}
	same := bytes.Equal(reply, buf)
	return same, !same
}
