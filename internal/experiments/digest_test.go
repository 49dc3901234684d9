package experiments

import (
	"crypto/sha256"
	"fmt"
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

// TestReportDigests pins the published bytes of the experiments that reach
// the parts of internal/cache and internal/msgchan the benchmark digests and
// TestWiringDigests do not: Fig. 6 runs receiver designs ①–④, abl-coherent
// runs Back-Invalidation against in-flight fills, and the rest cover the
// counter-batch, backend-inspect and storage paths. A change to simulator
// speed must leave every one of them alone; a change to the model re-blesses
// the constant it moved and says why.
func TestReportDigests(t *testing.T) {
	for _, tc := range []struct {
		id   string
		run  Runner
		want string
	}{
		{"fig6", Fig6, "74fc10620f72e359af467ae5d5e12163467cba9d068151380133db802b3aab86"},
		{"fig11", Fig11, "0c731f7302743d806f64eaf2908374aae00231686b9ec0251fc8879663d0a4cf"},
		{"tab3", Table3, "17b9032b7876f32c6b4d002a436f938e37eae30e9a8c34d73b3f81bff90afcc5"},
		{"abl-counter", AblCounterBatch, "af9faabb00a2763d5cf2f8ca015dcd57b2e5d440a568ed9285b423869fca97ba"},
		{"abl-coherent", AblHWCoherent, "98e54ab45c2020903abf4d33ee0e3aafeb435c9aa4e81d2bb36371d5e7e41f84"},
		{"abl-inspect", AblBackendInspect, "9798a48a0764d236d6169754651b88b68991b95af3d540529f294e14e155d60f"},
		{"abl-storage", AblStorage, "2e67fbd71bbdd810343b5b91d1beced6db6e0e612ba5012e94de05cfd7324cef"},
	} {
		tc := tc
		t.Run(tc.id, func(t *testing.T) {
			t.Parallel()
			if got := reportDigest(tc.run(0.05)); got != tc.want {
				t.Errorf("%s report digest at scale 0.05 = %s, want %s", tc.id, got, tc.want)
			}
		})
	}
}
