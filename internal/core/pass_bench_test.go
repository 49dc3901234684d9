package core

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkIdlePass is the host cost of one pass over 1, 4 and 33 idle
// design-④ links — a backend core of the benchmark's rack polls 33 — with
// the engine taken out: the pass's steps are called back to back at one
// instant, so what is measured is the fetches, the polls and the closing
// run, not the events that would separate the pass's two legs. The replayed
// rows are the same pass kept as a memo and replayed; the clock moves on a
// microsecond before each, so that the port is free again, as it is when a
// replay is made, and that move is part of what they measure.
func BenchmarkIdlePass(b *testing.B) {
	for _, replayed := range []bool{false, true} {
		for _, n := range []int{1, 4, 33} {
			name := fmt.Sprintf("rings=%d", n)
			if replayed {
				name += "/replayed"
			}
			b.Run(name, func(b *testing.B) {
				r := newPassRig(b, n)
				c := pollPass{memoize: replayed}
				pass := func() {
					if replayed {
						r.eng.RunUntil(r.eng.Now() + time.Microsecond)
					}
					c.begin(r.eng, nil, r.links.order, 4)
					for {
						if _, more := c.Step(); !more {
							break
						}
					}
					if !c.over() || c.got != 0 {
						b.Fatal("an idle pass did not close empty")
					}
				}
				pass() // the first pass makes what every later one reuses
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pass()
				}
				b.StopTimer()
				if replayed && c.m.replayed != int64(b.N) {
					b.Fatalf("%d of %d passes replayed", c.m.replayed, b.N)
				}
			})
		}
	}
}
