// Package oasis is the public API of this reproduction of "Oasis: Pooling
// PCIe Devices Over CXL to Boost Utilization" (SOSP 2025).
//
// Oasis pools PCIe devices — NICs here, SSDs via the storage engine — in
// software across the hosts of a CXL pod: a rack-scale group of servers
// sharing a non-cache-coherent CXL 2.0 memory pool. Instances (containers)
// on any pod host can use any pooled device; the datapath runs over shared
// CXL memory with software-managed coherence, and a pod-wide allocator
// handles placement, load balancing, and failover.
//
// The package is a builder over a deterministic discrete-event simulation
// of the full substrate (CXL pool, per-host CPU caches, NICs, ToR switch,
// SSDs — see DESIGN.md for the hardware-substitution argument). A minimal
// pod:
//
//	pod := oasis.NewPod(oasis.DefaultConfig())
//	h0 := pod.AddHost()              // has the pod's NIC
//	h1 := pod.AddHost()              // diskless/NIC-less host
//	nic := pod.AddNIC(h0, false)     // false: not the reserved backup
//	inst := pod.AddInstance(h1, oasis.IP(10, 0, 0, 10))
//	client := pod.AddClient(oasis.IP(10, 0, 99, 1))
//	pod.Start()
//	// … spawn application processes with pod.Go, then pod.Run…
//
// Everything runs in virtual time: pod.Run(d) executes d of simulated time
// deterministically.
//
// # The pod graph and incremental wiring
//
// Pod is the incremental node graph that owns every host, device, instance,
// and client. Nodes are added one at a time through the ...Err builders. A
// single idempotent wiring pass turns the graph into a live pod — data
// links to every peer, the allocator's control links, driver launches,
// metric registration, always in the same order. Start runs it over
// whatever exists; an add after Start runs the same pass, which then
// touches only the new node, so a pod grown one node at a time is wired by
// the code that wires one built up front. See DESIGN.md §10.
//
// # Clusters
//
// Cluster composes pods into a rack-scale topology on one virtual clock:
// each pod keeps its own CXL pool, ToR switch, allocator, and raft group,
// while the cluster routes instance placements to the least-loaded pod and
// migrates instances (with their volumes, epoch-fenced) between pods on
// load imbalance. Node identity is pod-scoped — metric names and fault
// targets gain a "pod<P>/" prefix resolved through internal/topo.
//
// # Builder errors and migration
//
// Every Add* builder has two forms. The AddNICErr/AddSSDErr/AddVolumeErr/
// AddInstanceErr (and AddLocalNICErr/AddLocalInstanceErr) forms return
// (T, error) and are the preferred API: wiring mistakes — duplicate
// instance IPs, exhausted pool memory, a frozen baseline topology — come
// back as errors the caller can handle. The original AddNIC/AddSSD/
// AddVolume/AddInstance forms are thin legacy wrappers that call the Err
// forms and panic on those same errors, which is fine for tests and
// examples where a wiring bug should abort loudly. There is exactly one
// wiring code path: the wrappers add nothing but the panic.
//
// # Observability
//
// Pod.Stats() samples every component's registered instruments into a
// typed, deterministic Snapshot (sorted series, JSON-marshalable, plus a
// Prometheus-style text encoding); the human-readable report every command
// prints is its String().
// See internal/obs and DESIGN.md's observability section for the
// instrument taxonomy and naming scheme.
package oasis

import (
	"oasis/internal/allocator"
	"oasis/internal/cxl"
	"oasis/internal/host"
	"oasis/internal/netengine"
	"oasis/internal/netstack"
	"oasis/internal/netsw"
	"oasis/internal/nic"
	"oasis/internal/obs"
	"oasis/internal/sim"
	"oasis/internal/ssd"
)

// Re-exported simulation handles so applications only import this package.
type (
	// Proc is a simulated process (one core's worth of execution).
	Proc = sim.Proc
	// Duration is virtual time.
	Duration = sim.Duration
)

// IP builds an IPv4 address.
func IP(a, b, c, d byte) netstack.IP { return netstack.IPv4(a, b, c, d) }

// Config assembles per-component parameters.
type Config struct {
	PoolBytes int64
	CXL       cxl.Params
	Host      host.Config
	NIC       nic.Params
	Switch    netsw.Params
	Engine    netengine.Config
	SSD       ssd.Params
	Stack     netstack.Config
	Allocator allocator.Config
	// NoAllocator disables the pod-wide allocator; instances must then be
	// assigned to NICs explicitly with Instance.Assign.
	NoAllocator bool
	// RaftReplicas replicates the allocator's decision log with Raft over
	// 64 B message channels across the first N pod hosts (§3.5). 0 disables
	// replication; otherwise it must be an odd count ≥ 3 and ≤ len(hosts).
	RaftReplicas int
}

// DefaultConfig mirrors the paper's evaluation platform (§5): a CXL 2.0
// pool on ×8 ports, 100 Gbit CX5-class NICs, one ToR switch.
func DefaultConfig() Config {
	return Config{
		PoolBytes: 1 << 30,
		CXL:       cxl.DefaultParams(),
		Host:      host.DefaultConfig(),
		NIC:       nic.DefaultParams(),
		Switch:    netsw.DefaultParams(),
		Engine:    netengine.DefaultConfig(),
		SSD:       ssd.DefaultParams(),
		Stack:     netstack.DefaultConfig(),
		Allocator: allocator.DefaultConfig(),
	}
}

// Snapshot is the structured result of Pod.Stats: a sorted, deterministic
// view of every registered series plus the retained trace events. It
// marshals to stable JSON and renders to Prometheus text via PromText.
type Snapshot = obs.Snapshot
