package experiments

import (
	"encoding/binary"
	"fmt"
	"time"

	"oasis/internal/cache"
	"oasis/internal/cxl"
	"oasis/internal/metrics"
	"oasis/internal/msgchan"
	"oasis/internal/sim"
)

// fig6Point is one (design, offered load) measurement.
type fig6Point struct {
	design    msgchan.Design
	offered   float64 // MOp/s; 0 = saturate
	achieved  float64 // MOp/s
	medianLat time.Duration
}

// rawChannel is one message channel on a bare pool, outside any pod — what
// Fig. 6 and the channel ablations measure: the ring's region, a sender on
// txPort, and a receiver behind a cache of its own on rxPort.
func rawChannel(eng *sim.Engine, pool *cxl.Pool, cfg msgchan.Config, txPort, rxPort *cxl.Port) (*msgchan.Sender, *msgchan.Receiver) {
	region, err := pool.Alloc(msgchan.RegionBytes(cfg))
	if err != nil {
		panic(err)
	}
	ch, err := msgchan.New(region, cfg)
	if err != nil {
		panic(err)
	}
	return msgchan.NewSender(ch, txPort, cache.DefaultParams()),
		msgchan.NewReceiver(ch, cache.New(eng, rxPort, cache.DefaultParams()))
}

// sendLoop is a raw channel's sending process as one chain of steps (see
// sim.Proc.Steps), without a process switch per send. It is
//
//	for p.Now() < end {
//		if wait := next - p.Now(); interval > 0 && wait > 0 {
//			if flush { tx.Flush(p) }
//			p.Sleep(wait)
//		}
//		payload := the current time, 8 bytes
//		if !tx.TrySend(p, payload) { p.Sleep(full); continue }
//		next = max(next+interval, p.Now())
//	}
//	if flush { tx.Flush(p) }
//
// interval 0 sends back to back.
type sendLoop struct {
	tx       *msgchan.Sender
	end      sim.Duration
	interval sim.Duration // pacing; 0 saturates
	full     sim.Duration // the wait after a refused send
	flush    bool         // flush when going idle and at the end

	next, wait sim.Duration
	payload    [8]byte
	pc         sendPC
}

// sendPC says where a sendLoop is.
type sendPC uint8

const (
	sendTop     sendPC = iota // check the clock, then wait or send
	sendIdle                  // flushing before the wait
	sendSend                  // store the timestamp and begin the send
	sendSending               // the send is in progress
	sendLast                  // the final flush is in progress
	sendOver
)

func (l *sendLoop) run(p *sim.Proc) { p.Steps(l) }

func (l *sendLoop) Step() (sim.Duration, bool) {
	tx := l.tx
	eng := tx.Engine()
	for {
		switch l.pc {
		case sendTop:
			if eng.Now() >= l.end {
				l.pc = sendOver
				if l.flush && tx.Unflushed() {
					tx.BeginFlush()
					l.pc = sendLast
				}
				continue
			}
			l.pc = sendSend
			if l.wait = l.next - eng.Now(); l.interval > 0 && l.wait > 0 {
				if l.flush && tx.Unflushed() {
					tx.BeginFlush()
					l.pc = sendIdle
					continue
				}
				return l.wait, true
			}
		case sendIdle:
			if d, more := tx.Step(); more {
				return d, true
			}
			l.pc = sendSend
			return l.wait, true
		case sendSend:
			binary.LittleEndian.PutUint64(l.payload[:], uint64(eng.Now()))
			tx.BeginSend(l.payload[:])
			l.pc = sendSending
		case sendSending:
			if d, more := tx.Step(); more {
				return d, true
			}
			l.pc = sendTop
			if !tx.Accepted() {
				return l.full, true
			}
			l.next = max(l.next+l.interval, eng.Now())
		case sendLast:
			if d, more := tx.Step(); more {
				return d, true
			}
			l.pc = sendOver
		default:
			return 0, false
		}
	}
}

// pollLoop is a raw channel's receiving process as one chain of steps. It
// is
//
//	for p.Now() < end {
//		if msg, ok := rx.Poll(p); ok {
//			got(msg)
//			p.Sleep(cost)
//		}
//	}
//
// with got, when set, called at the instant the poll ends; each poll is
// Poll's own chain (msgchan.Receiver.Lone), closing leg included.
type pollLoop struct {
	rx   *msgchan.Receiver
	end  sim.Duration
	cost sim.Duration // what handling a message costs
	got  func(msg []byte)
	poll sim.Stepper // the poll in progress, or nil
}

// run is the process: the chain, and the poll's blocking escapes.
func (l *pollLoop) run(p *sim.Proc) {
	for {
		p.Steps(l)
		if !l.rx.Blocked() {
			return
		}
		l.rx.Finish(p)
	}
}

func (l *pollLoop) Step() (sim.Duration, bool) {
	rx := l.rx
	for {
		if l.poll == nil {
			if rx.Engine().Now() >= l.end {
				return 0, false
			}
			l.poll = rx.Lone()
		}
		if d, more := l.poll.Step(); more || rx.Blocked() {
			return d, more
		}
		l.poll = nil
		if msg := rx.Payload(); msg != nil {
			if l.got != nil {
				l.got(msg)
			}
			return l.cost, true
		}
	}
}

// runMsgChannel drives one channel configuration for the window. offered=0
// saturates the sender (the throughput-ceiling measurement); otherwise the
// sender paces open-loop at the offered rate and flushes partial lines
// whenever it goes idle (§3.2.2). The receiver pays 10 ns per message.
func runMsgChannel(r *Report, design msgchan.Design, offeredMops float64, window sim.Duration) fig6Point {
	eng := sim.New()
	pool := cxl.NewPool(eng, 1<<24, cxl.DefaultParams())
	cfg := msgchan.DefaultConfig()
	cfg.Design = design
	tx, rx := rawChannel(eng, pool, cfg, pool.AttachPort("sender"), pool.AttachPort("receiver"))

	var hist metrics.Histogram
	send := &sendLoop{tx: tx, end: window, full: 500 * time.Nanosecond, flush: true}
	if offeredMops > 0 {
		send.interval = sim.Duration(float64(time.Second) / (offeredMops * 1e6))
		send.full = send.interval
	}
	eng.Go("tx", send.run)
	eng.Go("rx", (&pollLoop{rx: rx, end: window, cost: 10 * time.Nanosecond, got: func(msg []byte) {
		hist.Record(eng.Now() - sim.Duration(binary.LittleEndian.Uint64(msg[:8])))
	}}).run)
	eng.RunUntil(window)
	r.count(eng)
	eng.Shutdown()
	return fig6Point{
		design:    design,
		offered:   offeredMops,
		achieved:  float64(rx.Received) / window.Seconds() / 1e6,
		medianLat: hist.Percentile(50),
	}
}

// Fig6 reproduces Figure 6: one-way message throughput and median latency
// for the four channel designs.
func Fig6(scale float64) *Report {
	r := newReport("fig6", "Message channel designs: throughput & median latency (one-way, 16 B)")
	window := time.Duration(float64(2*time.Millisecond) * scale)
	if window < 500*time.Microsecond {
		window = 500 * time.Microsecond
	}
	designs := []msgchan.Design{
		msgchan.DesignBypassCache,
		msgchan.DesignNaivePrefetch,
		msgchan.DesignInvalidateConsumed,
		msgchan.DesignInvalidatePrefetched,
	}
	loads := []float64{1, 2, 4, 8, 14, 20, 30, 50}
	r.addf("%-24s %10s %10s %12s", "design", "offered", "achieved", "median lat")
	// Stage 1: saturation runs decide each design's load grid; stage 2 fans
	// the surviving (design, load) points out. Assembly stays in grid order.
	sats := parRun(len(designs), func(i int) fig6Point {
		return runMsgChannel(r, designs[i], 0, window)
	})
	type loadJob struct {
		design msgchan.Design
		load   float64
	}
	var jobs []loadJob
	for i, d := range designs {
		for _, load := range loads {
			if load > sats[i].achieved*1.05 {
				continue // beyond this design's ceiling
			}
			jobs = append(jobs, loadJob{d, load})
		}
	}
	points := parRun(len(jobs), func(i int) fig6Point {
		return runMsgChannel(r, jobs[i].design, jobs[i].load, window)
	})
	next := 0
	for i, d := range designs {
		sat := sats[i]
		r.Values[fmt.Sprintf("sat_%d", int(d))] = sat.achieved
		for ; next < len(jobs) && jobs[next].design == d; next++ {
			load, pt := jobs[next].load, points[next]
			r.addf("%-24s %7.1f M/s %7.1f M/s %12v", d, pt.offered, pt.achieved, pt.medianLat)
			if d == msgchan.DesignInvalidateConsumed && load == 14 {
				r.Values["lat14_invConsumed_us"] = float64(pt.medianLat) / 1e3
			}
			if d == msgchan.DesignInvalidatePrefetched && load == 14 {
				r.Values["lat14_invPrefetched_us"] = float64(pt.medianLat) / 1e3
			}
		}
		r.addf("%-24s %10s %7.1f M/s %12s", d, "saturated", sat.achieved, "-")
	}
	r.addf("paper: bypass 3.0 MOp/s; naive 8.6; +invalidate-consumed 87; target 14 MOp/s")
	r.addf("paper: at 14 MOp/s, ③ suffers a ~1.2 µs stale-prefetch hump; ④ holds ~0.6 µs")
	return r
}
