// Command oasis-pod builds a custom pod, drives a workload through it, and
// prints the full stats report — the "kick the tires on my own topology"
// tool.
//
//	oasis-pod -hosts 4 -nics 2 -instances 6 -duration 200ms
//	oasis-pod -hosts 3 -nics 1 -backup -instances 2 -fail-at 100ms -duration 300ms
//	oasis-pod -hosts 2 -nics 1 -ssds 1 -instances 1 -workload kv
//	oasis-pod -hosts 2 -nics 1 -instances 1 -stats json > stats.json
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"oasis"
	"oasis/internal/instance"
)

func main() {
	hosts := flag.Int("hosts", 2, "pod hosts")
	nics := flag.Int("nics", 1, "pooled NICs (placed round-robin on hosts)")
	backup := flag.Bool("backup", false, "reserve an extra backup NIC on the last host")
	ssds := flag.Int("ssds", 0, "pooled SSDs")
	instances := flag.Int("instances", 1, "container instances (placed round-robin)")
	duration := flag.Duration("duration", 200*time.Millisecond, "virtual run length")
	workload := flag.String("workload", "echo", "echo | kv")
	rate := flag.Float64("rate", 20e3, "client request rate per instance (req/s)")
	failAt := flag.Duration("fail-at", 0, "inject a NIC-port failure on nic1 at this time (0 = never)")
	raft := flag.Bool("raft", false, "replicate the allocator with Raft (needs ≥3 hosts)")
	stats := flag.String("stats", "text", "stats output format: text | json | prom")
	flag.Parse()

	if *stats != "text" && *stats != "json" && *stats != "prom" {
		fmt.Fprintf(os.Stderr, "oasis-pod: unknown -stats format %q (want text, json, or prom)\n", *stats)
		os.Exit(2)
	}

	if *hosts < 1 || *nics < 1 || *instances < 1 {
		fmt.Fprintln(os.Stderr, "oasis-pod: need at least 1 host, 1 NIC, 1 instance")
		os.Exit(2)
	}

	cfg := oasis.DefaultConfig()
	cfg.Engine.IdleBackoff = 20 * time.Microsecond
	if *raft {
		cfg.RaftReplicas = 3
	}
	pod := oasis.NewPod(cfg)

	var hs []*oasis.Host
	for i := 0; i < *hosts; i++ {
		hs = append(hs, pod.AddHost())
	}
	var nicIDs []uint16
	for i := 0; i < *nics; i++ {
		n := pod.AddNIC(hs[i%len(hs)], false)
		nicIDs = append(nicIDs, n.ID)
	}
	if *backup {
		pod.AddNIC(hs[len(hs)-1], true)
	}
	var drives []uint16
	for i := 0; i < *ssds; i++ {
		d := pod.AddSSD(hs[(i+1)%len(hs)], 1<<18)
		drives = append(drives, d.ID)
	}
	var insts []*oasis.Instance
	var stores []*instance.Store
	for i := 0; i < *instances; i++ {
		in := pod.AddInstance(hs[i%len(hs)], oasis.IP(10, 0, 0, byte(10+i)))
		insts = append(insts, in)
		if *workload == "kv" && len(drives) > 0 {
			vol := pod.AddVolume(in, drives[i%len(drives)], 1<<14)
			store := instance.NewStore(vol, 3*time.Microsecond)
			stores = append(stores, store)
			v := vol
			inCopy := in
			pod.Go("kv-start", func(p *oasis.Proc) {
				if v.WaitReady(p, 100*time.Millisecond) {
					instance.ServeKV(pod.Eng, inCopy.Stack, 11211, store)
				}
			})
		}
	}
	client := pod.AddClient(oasis.IP(10, 0, 99, 1))
	pod.Start()
	for _, in := range insts {
		in.RequestAllocation()
	}
	if *failAt > 0 && len(nicIDs) > 0 {
		at := *failAt
		pod.Eng.At(at, func() {
			fmt.Printf("t=%v: failing nic%d's switch port\n", at, nicIDs[0])
			pod.FailNICPort(nicIDs[0])
		})
	}

	switch *workload {
	case "echo":
		for _, in := range insts {
			in := in
			pod.Go("echo", func(p *oasis.Proc) {
				conn, err := in.Stack.ListenUDP(7)
				if err != nil {
					return
				}
				for {
					dg := conn.Recv(p)
					if conn.SendTo(p, dg.Src, dg.SrcPort, dg.Data) != nil {
						return
					}
				}
			})
		}
		sent, recv := 0, 0
		pod.Go("client", func(p *oasis.Proc) {
			conn, err := client.Stack.ListenUDP(0)
			if err != nil {
				return
			}
			p.Sleep(5 * time.Millisecond)
			interval := oasis.Duration(float64(time.Second) / (*rate * float64(len(insts))))
			for p.Now() < *duration {
				for _, in := range insts {
					sent++
					if conn.SendTo(p, in.IPAddr(), 7, []byte("probe-payload")) != nil {
						continue
					}
					if _, ok := conn.RecvTimeout(p, 5*time.Millisecond); ok {
						recv++
					}
					p.Sleep(interval)
				}
			}
			pod.Shutdown()
		})
		pod.Run(*duration + 5*time.Second)
		fmt.Printf("echo: %d sent, %d received (%.2f%% loss)\n",
			sent, recv, 100*float64(sent-recv)/float64(max(sent, 1)))
	case "kv":
		if len(stores) == 0 {
			fmt.Fprintln(os.Stderr, "oasis-pod: -workload kv needs -ssds >= 1")
			os.Exit(2)
		}
		ops := 0
		pod.Go("client", func(p *oasis.Proc) {
			p.Sleep(10 * time.Millisecond)
			kv, err := instance.DialKV(p, client.Stack, insts[0].IPAddr(), 11211)
			if err != nil {
				pod.Shutdown()
				return
			}
			for p.Now() < *duration {
				key := fmt.Sprintf("k%04d", ops%512)
				if ops%3 == 0 {
					if kv.Set(p, key, []byte("value")) == nil {
						ops++
					}
				} else {
					if _, _, err := kv.Get(p, key); err == nil {
						ops++
					}
				}
			}
			pod.Shutdown()
		})
		pod.Run(*duration + 5*time.Second)
		fmt.Printf("kv: %d operations (sets persisted to the pooled SSD)\n", ops)
	default:
		fmt.Fprintf(os.Stderr, "oasis-pod: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	snap := pod.Stats()
	switch *stats {
	case "json":
		os.Stdout.Write(snap.JSON())
		fmt.Println()
	case "prom":
		fmt.Print(snap.PromText())
	default:
		fmt.Print(snap.String())
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
