package experiments

import (
	"crypto/sha256"
	"fmt"
	"os"
	"regexp"
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

// reportBlock is one fenced block of EXPERIMENTS.md with the info string
// "report <id>@<scale>": the report that id prints at that scale.
type reportBlock struct{ key, text string }

var reportFence = regexp.MustCompile("(?ms)^```report (\\S+)\n(.*?)^```$")

func reportBlocks(doc string) []reportBlock {
	var out []reportBlock
	for _, m := range reportFence.FindAllStringSubmatch(doc, -1) {
		out = append(out, reportBlock{m[1], m[2]})
	}
	return out
}

func fenced(key, text string) string { return "```report " + key + "\n" + text + "```" }

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
// runs at the scale of its fidelity rows (fidelity_test.go) and checks them
// — the campaigns' invariants, fig13's outage bounds and fig8's overhead
// band among them — so a re-blessed constant cannot bless a broken campaign,
// and each id runs once per go test (TestFidelity fails on a pair no row
// runs). Every row's
// run also checks its exact costs against its line of testdata/counts.txt
// (counts_test.go), and the file has a line for every row and no other, and
// compares the report with its EXPERIMENTS.md block (both racksweep rows
// with the one racksweep block), printing the block to paste when they
// differ. Under -short (the race gate) only chaos of the campaign rows runs.
func TestReportDigests(t *testing.T) {
	runs := digestRuns()
	golden := countsGolden(t)
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	blocks := map[string]string{}
	for _, b := range reportBlocks(string(doc)) {
		blocks[b.key] = b.text
	}
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
			id, _, _ := strings.Cut(tc.name, "/")
			key := fmt.Sprintf("%s@%v", id, tc.scale)
			if got := r.String(); blocks[key] != got {
				t.Errorf("EXPERIMENTS.md's report %s block is not the report; it must read:\n%s", key, fenced(key, got))
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
	const racksweep = "c462e09b3a5954e43459a4634afe334d5c9ad5c2ee7083fb85ea280aa67086a2"
	return []digestRun{
		{"fig6", Fig6, 0.5, "bf8b09e684ecc7847ab34b3a435e969d13684e666b8452096c6eaaabc243e7be"},
		{"fig11", Fig11, 0.3, "e810600ba1bbcecccb6ed8f37f2e8696d845a67ee6f04718c12a904b7156f398"},
		{"tab3", Table3, 0.4, "e013bbba4af6e664edd2e39022c464b64518708cf139a149dbed86c9fdc9f84f"},
		{"abl-counter", AblCounterBatch, 0.5, "90b29abf0f565a59a687d92bdb4264545bfbb2b9127aeeb7241e3e8de999c1c7"},
		{"abl-coherent", AblHWCoherent, 0.5, "f5e7fd92e2c7cdef6d41f98d3bb6786e4ac5e919648049d1764378f0a28af787"},
		{"abl-inspect", AblBackendInspect, 0.4, "02ea4a00d94f8a9b1685c59dd3b8d3f3b6fbaf9b43658b2f1e6c2fa98bfea776"},
		{"abl-storage", AblStorage, 0.5, "2b1b4b463dd0acdf864469db0132ec34d30d01ab198b1a2709ded3eecfbe5c09"},
		{"fig9", Fig9, 0.3, "688e0e530838087b50b3c33d6add36f181987ccee448111e964316e84ff95b4c"},
		{"fig10", Fig10, 0.3, "36eb1dafe2419d1c088b9ba89b78d82d84eb143e354b0e4d2a60ab3ceb4db8e4"},
		{"abl-sharding", AblSharding, 0.5, "a4a4c92b1ac20d59a0d3b7bd94ca14f727e0e562e9ddd74ec14417429173e01c"},
		{"abl-qos", AblQoS, 0.5, "7ee9d2a969213ee861ae309fbb44a7a8e6b4f1a065c09da510a6491a506ca045"},
		{"fig13", Fig13, 0.1, "41290607923de867d0b1874209d6b6bea6dce525f47cd25bd748724e6b6b2d96"},
		{"blackout", Blackout, 0.5, "30639f343396c1c2dc7b7b3b29a54d58a033e483ee6097d7bf245a71bce7c7f1"},
		{"fig2", Fig2, 0.5, "08430501a8ade2821d02a3261f9bc225756204af6461b5700a84f88421cff601"},
		{"fig3", Fig3, 0.5, "b3becd0a401021008a8605eafdbc988eb8efe9ee8c3d1fea43820430884a485b"},
		{"tab1", Table1, 1, "4e41275a9c2e91fbd65b9795d41211969c57e2d6e0359549409251b5b7deba87"},
		{"tab2", Table2, 0.5, "aa6e9f035fd42ffc3604ea2929916c1f7c5d61fad388e0b4bbd269a2871d38fd"},
		{"fig8", Fig8, 0.05, "468696a011862888bf51f726b233a75a0fc371623947d74683809ac13a1a252f"},
		{"fig12", Fig12, 0.25, "9df60e0bfd284453f1f16d4bff7e3b007085aa6104341aa1a5a85ed7f786b4d8"},
		{"fig14", Fig14, 0.2, "76056cca54f4b2908d3326b2a17c32d42f6acbac53eb384afc2128403be03b90"},
		{"abl-failover", AblFailoverMechanism, 0.5, "7c6f0a5eb68bb4b8ac19ecd068a22087a7694e5fa16d8ad882810f86eef4475e"},
		{"chaos", Chaos, 1, "bc5aa76009f6ce08714091b21bcae489e472b5db7c3a68162e62ef2d511c6373"},
		{"grayfail", Grayfail, 1, "a40a2311f869ef70663e913edfec03e30906d0661184dc1dfd710c78c167fa8d"},
		{"racksweep/serial", func(s float64) *Report { return racksweepRun(s, false) }, 0.05, racksweep},
		{"racksweep/perpod", func(s float64) *Report { return racksweepRun(s, true) }, 0.05, racksweep},
	}
}
