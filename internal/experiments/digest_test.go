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
	for _, k := range sortedKeys(r.Values) {
		fmt.Fprintf(&b, "%s=%v\n", k, r.Values[k])
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
}

func sortedKeys(values map[string]float64) []string {
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
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
// both protocols. Their fidelity rows (fidelity_test.go) carry the
// experiments' acceptance bounds and are checked on these runs, so each runs
// once.
//
// The next eight rows pin the paper ids no other row reaches: the motivation
// figures and tables (the pooling model, the bursty trace, the device
// requirements), the web-application overhead, trace replay, memcached
// through a NIC failover and the failover-mechanism ablation.
//
// The campaign rows run once each: a constant is a stronger check than a
// rerun compare — it pins the bytes across commits as well as across runs.
// racksweep, the one experiment with something to partition, runs under both
// execution shapes against one constant, because they are two executions of
// one model (Racksweep picks one from GOMAXPROCS); scripts/verify.sh
// re-runs racksweep/perpod at GOMAXPROCS=1, 2 and 8 under OASIS_SIMCHECK=1:
// the thread count must be invisible in the virtual timeline. Every row
// also checks the fidelity rows of its (id, scale) — the campaigns'
// invariants, fig13's outage bounds and fig8's overhead band among them —
// so a re-blessed constant cannot bless a broken campaign, and no pair runs
// twice (TestFidelity runs only the pairs these rows do not). Every row's
// run also checks its exact costs against its line of testdata/counts.txt
// (counts_test.go), and the file has a line for every row and no other.
// Under -short (the race gate) only chaos of the campaign rows runs.
func TestReportDigests(t *testing.T) {
	runs := digestRuns()
	golden := countsGolden(t)
	for name := range golden {
		if !slices.ContainsFunc(runs, func(d digestRun) bool { return d.name == name }) {
			t.Errorf("testdata/counts.txt row %s has no digest row", name)
		}
	}
	for _, tc := range runs {
		tc := tc
		want, counted := golden[tc.name]
		if !counted {
			t.Errorf("digest row %s has no testdata/counts.txt row", tc.name)
		}
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && (tc.name == "grayfail" || strings.HasPrefix(tc.name, "racksweep/")) {
				t.Skip("one campaign is the detector's share; the rest run in the non-race tier")
			}
			t.Parallel()
			r := tc.run(tc.scale)
			checkClaims(t, r, tc.scale)
			if got := reportDigest(r); got != tc.want {
				t.Errorf("%s report digest at scale %v = %s, want %s", tc.name, tc.scale, got, tc.want)
			}
			if counted {
				checkCounts(t, want, countLine(tc.name, r))
			}
		})
	}
}

// digestRun is a row of TestReportDigests: a run, and the digest its report
// must hash to. A row's id is its name up to the first slash.
type digestRun struct {
	name  string
	run   Runner
	scale float64
	want  string
}

func digestRuns() []digestRun {
	const racksweep = "b8a01281304395679e802d50f4b9cb5d662893b4ffe88bac06cc299c650520ff"
	return []digestRun{
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
		{"fig2", Fig2, 0.05, "4a7e0e3b8aa599979c704513211e491f712b4d0a1215b580fbfead702e5d82a0"},
		{"fig3", Fig3, 0.05, "90b7244d8cc1da248bf3289d50d748639823ff18fbd78c2d7fa102c93fb8ca09"},
		{"tab1", Table1, 0.05, "4e41275a9c2e91fbd65b9795d41211969c57e2d6e0359549409251b5b7deba87"},
		{"tab2", Table2, 0.05, "de3491225c2d6c4921d9709e4a9bf08cd63f047972c472fb095b56afff84ad7d"},
		{"fig8", Fig8, 0.05, "43d9df33b2ea1893093decff9706fd53a1a679e979c0cb418c7bc6fce96330da"},
		{"fig12", Fig12, 0.05, "4b40454897f6d13c9d7165e2918447e279b0defad52b03ea42b14bb1cbc553b8"},
		{"fig14", Fig14, 0.05, "9ef97cffee1848b96e435670afa19e5a2b1f8d203a8310a0965e3d9805183f3f"},
		{"abl-failover", AblFailoverMechanism, 0.05, "8972ffab210bf9e995912735ec6570e3b76975e09d45d2b9dd893884a0a792e1"},
		{"chaos", Chaos, 1, "b15ff5f5ac5264bdc6198d4d12cf88c4ef9c030c1328b0229ea51b184e2d8a32"},
		{"grayfail", Grayfail, 1, "e9ccc543f1fccbd3550b3a89492536cb0b05b8c13525b83cdc90ea58240dca86"},
		{"racksweep/serial", func(s float64) *Report { return racksweepRun(s, false) }, 0.05, racksweep},
		{"racksweep/perpod", func(s float64) *Report { return racksweepRun(s, true) }, 0.05, racksweep},
	}
}
