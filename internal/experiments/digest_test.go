package experiments

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// reportDigest is sha256 over the rendered report followed by its values in
// key order — everything an experiment publishes, text and numbers.
func reportDigest(r *Report) string {
	var b strings.Builder
	b.WriteString(r.String())
	keys := make([]string, 0, len(r.Values))
	for k := range r.Values {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%v\n", k, r.Values[k])
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
}

// under fixes the execution shape of a partitionable runner.
func under(x Exec, run func(float64, Exec) *Report) Runner {
	return func(scale float64) *Report { return run(scale, x) }
}

// TestReportDigests pins published bytes, every row against a constant
// captured at the parent commit of the change that added it.
//
// The first seven rows are the experiments that reach the parts of
// internal/cache and internal/msgchan the benchmark digests and
// TestWiringDigests do not: Fig. 6 runs receiver designs ①–④, abl-coherent
// runs Back-Invalidation against in-flight fills, and the rest cover the
// counter-batch, backend-inspect and storage paths. A change to simulator
// speed must leave every one of them alone; a change to the model re-blesses
// the constant it moved and says why.
//
// fig9 and fig10 run the baseline pod (netengine.LocalDriver) beside the
// pooled one under the request/response and echo application models;
// abl-sharding and abl-qos are the two users of the raw-channel rig
// (rawChannel) that no other row reaches.
//
// fig13 and blackout are the two users of the campaign harness
// (campaign.go) outside chaos and grayfail: the probe stream around one NIC
// failover, and the acked-write ledger across a cross-pod migration under
// both protocols. Their rows carry the experiments' acceptance bounds
// (campaignInvariants), so each runs once.
//
// The <campaign>/<exec> rows are the determinism gate of the three campaigns
// under every execution shape: each pair runs once, and a constant is a
// stronger check than a rerun compare — it pins the bytes across commits as
// well as across runs. Serial and PerPod rows share one constant because
// they are two executions of one model; a single-pod campaign has no PerPod
// row because there it is the Serial path. PerHost is a different modeled
// topology (clients behind RemotePorts) with a constant of its own — the
// racksweep one coincides with serial only because at this scale its report
// is too coarse to see 1.4 µs of cable. scripts/verify.sh re-runs the
// non-serial rows at GOMAXPROCS=1, 2 and 8 under OASIS_SIMCHECK=1: the
// thread count must be invisible in the virtual timeline. Every row also
// re-asserts its campaign's invariants (campaignInvariants), so a re-blessed
// constant cannot bless a broken campaign. Under -short (the race gate) only
// chaos/serial of the campaign rows runs.
func TestReportDigests(t *testing.T) {
	const (
		racksweep = "b8a01281304395679e802d50f4b9cb5d662893b4ffe88bac06cc299c650520ff"
		chaos     = "b15ff5f5ac5264bdc6198d4d12cf88c4ef9c030c1328b0229ea51b184e2d8a32"
		grayfail  = "e9ccc543f1fccbd3550b3a89492536cb0b05b8c13525b83cdc90ea58240dca86"
	)
	for _, tc := range []struct {
		name  string
		run   Runner
		scale float64
		want  string
	}{
		{"fig6", Fig6, 0.05, "74fc10620f72e359af467ae5d5e12163467cba9d068151380133db802b3aab86"},
		{"fig11", Fig11, 0.05, "0c731f7302743d806f64eaf2908374aae00231686b9ec0251fc8879663d0a4cf"},
		{"tab3", Table3, 0.05, "17b9032b7876f32c6b4d002a436f938e37eae30e9a8c34d73b3f81bff90afcc5"},
		{"abl-counter", AblCounterBatch, 0.05, "af9faabb00a2763d5cf2f8ca015dcd57b2e5d440a568ed9285b423869fca97ba"},
		{"abl-coherent", AblHWCoherent, 0.05, "98e54ab45c2020903abf4d33ee0e3aafeb435c9aa4e81d2bb36371d5e7e41f84"},
		{"abl-inspect", AblBackendInspect, 0.05, "9798a48a0764d236d6169754651b88b68991b95af3d540529f294e14e155d60f"},
		{"abl-storage", AblStorage, 0.05, "2e67fbd71bbdd810343b5b91d1beced6db6e0e612ba5012e94de05cfd7324cef"},
		{"fig9", Fig9, 0.05, "621e7ca02899cbbbb9f9d60d67fca5408ce9025657b63cbdf8013a6069557d4f"},
		{"fig10", Fig10, 0.05, "7680bf1f8390ea138adfcd4d088a36d305e59cdd0310f226b1422c2b4a89375e"},
		{"abl-sharding", AblSharding, 0.05, "007d3622d21d631fc1c2520479d403ca84315965b51fac1ea809d7da22aeb03b"},
		{"abl-qos", AblQoS, 0.05, "7ee9d2a969213ee861ae309fbb44a7a8e6b4f1a065c09da510a6491a506ca045"},
		{"fig13", Fig13, 0.1, "41290607923de867d0b1874209d6b6bea6dce525f47cd25bd748724e6b6b2d96"},
		{"blackout", Blackout, 0.5, "9e8f7f97352571fa2b4243357671238373f7b6e94ae3952a6c791e5747eabb18"},
		{"chaos/serial", under(Serial, chaosRun), 1, chaos},
		{"chaos/perhost", under(PerHost, chaosRun), 1, "4823c279fd59d469e0be131f9f7a08b0e76f0bbcfd436bf86192ef198b3e0298"},
		{"grayfail/serial", under(Serial, grayfailRun), 1, grayfail},
		{"grayfail/perhost", under(PerHost, grayfailRun), 1, "89fba91eb4502f8bbe8e171fd117c5987cbc446b8c4d5224dcbcad5b92fe56d6"},
		{"racksweep/serial", under(Serial, racksweepRun), 0.05, racksweep},
		{"racksweep/perpod", under(PerPod, racksweepRun), 0.05, racksweep},
		{"racksweep/perhost", under(PerHost, racksweepRun), 0.05, racksweep},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && strings.Contains(tc.name, "/") && tc.name != "chaos/serial" {
				t.Skip("one campaign is the detector's share; the rest run in the non-race tier")
			}
			t.Parallel()
			r := tc.run(tc.scale)
			if check := campaignInvariants[r.ID]; check != nil {
				check(t, r)
			}
			if got := reportDigest(r); got != tc.want {
				t.Errorf("%s report digest at scale %v = %s, want %s", tc.name, tc.scale, got, tc.want)
			}
		})
	}
}

// campaignInvariants are what a campaign's report must say under every
// execution shape, keyed by report id (a report keeps its id under all of
// them).
var campaignInvariants = map[string]func(*testing.T, *Report){
	// The paper reports ~38 ms of interruption (Fig. 13); the reproduction
	// must keep the loss window in the same regime and actually fail over.
	"fig13": func(t *testing.T, r *Report) {
		if r.Values["failovers"] < 1 {
			t.Fatalf("no failover recorded:\n%s", r)
		}
		if outage := r.Values["outage_ms"]; outage <= 0 || outage > 100 {
			t.Fatalf("failover outage %v ms out of bounds (0, 100]:\n%s", outage, r)
		}
		if r.Values["lost"] < 1 {
			t.Fatalf("probe stream saw no loss at all — failure not injected?\n%s", r)
		}
	},
	// The acceptance gate for pre-copy migration: at every write rate the
	// pre-copy blackout is strictly under the stop-the-world one on the
	// identical scenario, with no acked write lost under either protocol.
	"blackout": func(t *testing.T, r *Report) {
		if v := r.Values["violations"]; v != 0 {
			t.Fatalf("blackout experiment violated %v invariant(s):\n%s", v, r)
		}
		if r.Values["rates"] < 2 {
			t.Fatalf("blackout grid too small:\n%s", r)
		}
		for k, pre := range r.Values {
			if rate, ok := strings.CutPrefix(k, "precopy_"); ok {
				if stw, ok := r.Values["stw_"+rate]; !ok || pre <= 0 || stw <= 0 || pre >= stw {
					t.Fatalf("%s=%v not strictly under stop-the-world %v:\n%s", k, pre, stw, r)
				}
			}
		}
	},
	"chaos": func(t *testing.T, r *Report) {
		if v := r.Values["violations"]; v != 0 {
			t.Fatalf("chaos campaign violated %v recovery invariant(s):\n%s", v, r)
		}
	},
	"grayfail": func(t *testing.T, r *Report) {
		if v := r.Values["violations"]; v != 0 {
			t.Fatalf("grayfail campaign violated %v invariant(s):\n%s", v, r)
		}
		if r.Values["health_nic_evacs"] < 1 || r.Values["health_ssd_evacs"] < 1 {
			t.Fatalf("health scorer did not evacuate both gray devices:\n%s", r)
		}
		if r.Values["nic_failovers"] != 0 || r.Values["ssd_failovers"] != 0 {
			t.Fatalf("gray faults tripped hard failovers:\n%s", r)
		}
	},
	"racksweep": func(t *testing.T, r *Report) {
		v := r.Values
		if v["hosts"] < 200 || v["pods"] < 2 {
			t.Fatalf("simulated cluster has %.0f hosts in %.0f pods, want >= 200 in >= 2", v["hosts"], v["pods"])
		}
		if v["migrations"] == 0 {
			t.Fatal("hot-spot rebalance performed no cross-pod migrations")
		}
		if v["spread_final"] > v["spread_skewed"]-2 {
			t.Fatalf("rebalance barely helped: spread %v -> %v", v["spread_skewed"], v["spread_final"])
		}
		if v["echoes"] == 0 {
			t.Fatal("no traffic completed during the sweep")
		}
		if v["pod64_nic"] >= v["pod8_nic"] {
			t.Fatal("analytic sweep: stranding should fall as the pooling domain grows")
		}
	},
}
