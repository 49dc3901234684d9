package topo

import "testing"

// FuzzTopoParse: a target string comes from a fault plan or a command line,
// so Parse must take anything — an error or a Ref, never a panic — and a Ref
// it returns must be the one its own String names: Parse(r.String()) == r.
// (String need not give the input back: "host007" and "pod+1/nic3" are
// accepted and render canonically.) Seeds: every node form, scoped and not,
// and the near-misses around each — no digits, a sign, a leading zero, an
// index past int, an empty segment, a second scope.
func FuzzTopoParse(f *testing.F) {
	for _, form := range []string{"pod", "host", "nic", "ssd"} {
		for _, n := range []string{"", "0", "7", "007", "+7", "-1", "65537", "4294967297", "99999999999999999999", "x", "7x", " 7", "7/"} {
			f.Add(form + n)
			f.Add("pod1/" + form + n)
		}
	}
	for _, s := range []string{
		"", "/", "//", "pod1/", "pod1//", "pod/x", "pod-1/x", "pod+1/host2", "pod1/pod2", "pod1/pod2/host3",
		"inst-", "inst-10.0.0.20", "pod2/inst-10.0.0.20", "inst-a/b", "inst", "instance-1",
		"host2/storage-be1", "pod1/host2/storage-be1", "host0/", "/fe", "gpu3", "HOST1", "host1\x00", "pod\xff/host1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, target string) {
		r, err := Parse(target)
		if err != nil {
			if r != (Ref{}) {
				t.Fatalf("Parse(%q) failed (%v) but returned %+v", target, err, r)
			}
			return
		}
		if r.Kind == KindInvalid {
			t.Fatalf("Parse(%q) accepted an invalid kind: %+v", target, r)
		}
		again, err := Parse(r.String())
		if err != nil || again != r {
			t.Fatalf("Parse(%q) = %+v renders as %q, which parses as %+v, %v", target, r, r.String(), again, err)
		}
	})
}
