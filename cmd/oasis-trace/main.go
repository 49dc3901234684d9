// Command oasis-trace generates and inspects the synthetic workload traces
// that stand in for the paper's production Azure traces.
//
//	oasis-trace -kind packets -peak 0.39 -span 1s        # bursty NIC trace
//	oasis-trace -kind packets -rack A                    # Table 2's rack A set
//	oasis-trace -kind alloc -hosts 512                   # stranding inputs
//	oasis-trace -kind packets -series                    # 10 µs bandwidth series (Fig. 3)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"oasis/internal/strand"
	"oasis/internal/trace"
)

func main() {
	kind := flag.String("kind", "packets", "packets | alloc")
	span := flag.Duration("span", time.Second, "packet trace length")
	peak := flag.Float64("peak", 0.39, "burst (P99.99) utilization target")
	mean := flag.Float64("mean", 0.0026, "mean utilization target")
	link := flag.Float64("link", 100e9, "link rate, bits/s")
	seed := flag.Int64("seed", 1, "generator seed")
	rack := flag.String("rack", "", "generate a Table 2 rack set: A or B")
	series := flag.Bool("series", false, "dump the 10 µs bandwidth series (Fig. 3 data)")
	hosts := flag.Int("hosts", 512, "alloc: hosts to fill")
	flag.Parse()

	switch *kind {
	case "packets":
		if *rack != "" {
			var traces []*trace.PacketTrace
			var linkBps float64
			switch *rack {
			case "A":
				traces, linkBps = trace.RackA(*span), 100e9
			case "B":
				traces, linkBps = trace.RackB(*span), 50e9
			default:
				fmt.Fprintln(os.Stderr, "oasis-trace: -rack must be A or B")
				os.Exit(2)
			}
			bucket := 10 * time.Microsecond
			for i, tr := range traces {
				fmt.Printf("host %d: %7d packets, mean %.4f, P99 %.3f, P99.99 %.3f\n",
					i+1, len(tr.Events), tr.MeanUtil(),
					tr.UtilizationAt(99, bucket), tr.UtilizationAt(99.99, bucket))
			}
			agg := trace.Merge(4*linkBps, traces...)
			fmt.Printf("aggregated P99.99 over 4 hosts: %.3f\n", agg.UtilizationAt(99.99, bucket))
			return
		}
		cfg := trace.BurstyConfig{
			Span: *span, LinkBps: *link, PeakUtil: *peak, MeanUtil: *mean,
			BurstMean: 120 * time.Microsecond, Seed: *seed,
		}
		tr := trace.GenBursty(cfg)
		bucket := 10 * time.Microsecond
		fmt.Printf("packets: %d, bytes: %d, mean util %.4f, P99 %.3f, P99.99 %.3f\n",
			len(tr.Events), tr.TotalBytes(), tr.MeanUtil(),
			tr.UtilizationAt(99, bucket), tr.UtilizationAt(99.99, bucket))
		if *series {
			s := tr.BandwidthSeries(bucket)
			for i := 0; i < s.Len(); i++ {
				if v := s.At(i); v > 0 {
					gbps := v * 8 / bucket.Seconds() / 1e9
					fmt.Printf("%d\t%.3f\n", i*10, gbps) // µs, Gbps
				}
			}
		}
	case "alloc":
		cfg := strand.DefaultConfig()
		cfg.Hosts = *hosts
		demands := strand.FillHosts(cfg)
		var cpu, mem, nicD, ssd float64
		for _, d := range demands {
			cpu += d.CPU
			mem += d.Mem
			nicD += d.NIC
			ssd += d.SSD
		}
		n := float64(len(demands))
		fmt.Printf("hosts: %d, avg demand per host: cpu %.1f cores, mem %.1f GB, nic %.1f Gbps, ssd %.0f GB\n",
			len(demands), cpu/n, mem/n, nicD/n, ssd/n)
		shape := trace.DefaultHostShape()
		fmt.Printf("avg utilization: cpu %.1f%%, mem %.1f%%, nic %.1f%%, ssd %.1f%%\n",
			100*cpu/n/shape.CPU, 100*mem/n/shape.Mem, 100*nicD/n/shape.NIC, 100*ssd/n/shape.SSD)
	default:
		fmt.Fprintln(os.Stderr, "oasis-trace: -kind must be packets or alloc")
		os.Exit(2)
	}
}
