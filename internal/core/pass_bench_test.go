package core

import (
	"fmt"
	"testing"
)

// BenchmarkIdlePass is the host cost of one pass over 1, 4 and 33 idle
// design-④ links — a backend core of the benchmark's rack polls 33 — with
// the engine taken out: the pass's steps are called back to back at one
// instant, so what is measured is the fetches, the polls and the closing
// run, not the events that would separate the pass's two legs.
func BenchmarkIdlePass(b *testing.B) {
	for _, n := range []int{1, 4, 33} {
		b.Run(fmt.Sprintf("rings=%d", n), func(b *testing.B) {
			r := newPassRig(b, n)
			var c pollPass
			pass := func() {
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
		})
	}
}
