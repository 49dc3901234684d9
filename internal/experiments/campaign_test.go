package experiments

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"oasis"
	"oasis/internal/faults"
	"oasis/internal/sim"
)

// faultyVolume is an in-memory blockVolume with one misbehaviour armed per
// test: the checkers are otherwise only ever seen passing.
type faultyVolume struct {
	blocks  map[uint64][]byte
	dropSeq uint64 // this write is acked but never stored
	failSeq uint64 // this write errors back to the guest, and lands anyway
	stale   map[uint64][]byte
	staleAt uint64 // reads of this LBA return its first-ever contents
}

func (v *faultyVolume) Write(p *oasis.Proc, lba uint64, data []byte) error {
	seq, _ := stamped(data, lba)
	if seq == v.dropSeq {
		return nil
	}
	blk := append([]byte(nil), data...)
	if _, ok := v.stale[lba]; !ok {
		v.stale[lba] = blk
	}
	v.blocks[lba] = blk
	if seq == v.failSeq {
		return errors.New("injected write error")
	}
	return nil
}

func (v *faultyVolume) Read(p *oasis.Proc, lba uint64, nblocks int) ([]byte, error) {
	if lba == v.staleAt {
		return v.stale[lba], nil
	}
	if blk, ok := v.blocks[lba]; ok {
		return blk, nil
	}
	return nil, errors.New("unwritten block")
}

func TestLedgerVerdicts(t *testing.T) {
	const lbas, writes = 4, 12 // sequences 1..12, three rounds over four LBAs
	for _, tc := range []struct {
		name string
		vol  faultyVolume
		want int // mismatches
	}{
		{"honest volume", faultyVolume{staleAt: lbas}, 0},
		{"silently drops the last acked write of an LBA", faultyVolume{dropSeq: 10, staleAt: lbas}, 1},
		{"drops an acked write that a later one covers", faultyVolume{dropSeq: 6, staleAt: lbas}, 0},
		{"returns a stale block", faultyVolume{staleAt: 3}, 1},
		{"holds a write that failed after the last ack", faultyVolume{failSeq: 11, staleAt: lbas}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vol := tc.vol
			vol.blocks, vol.stale = make(map[uint64][]byte), make(map[uint64][]byte)
			led := newLedger(lbas)
			got := -1
			eng := sim.New()
			eng.Go("writer", func(p *sim.Proc) {
				led.write(p, &vol, time.Millisecond, writes*time.Millisecond)
				got = led.verify(p, &vol, true)
			})
			eng.Run()
			if got != tc.want {
				t.Errorf("mismatches = %d, want %d", got, tc.want)
			}
			wantErrs := 0
			if vol.failSeq != 0 {
				wantErrs = 1
			}
			if led.ackedWrites != writes-wantErrs || led.writeErrs != wantErrs {
				t.Errorf("acked %d errored %d, want %d / %d", led.ackedWrites, led.writeErrs, writes-wantErrs, wantErrs)
			}
		})
	}
	// A never-acked LBA counts only for a caller that expects every LBA acked.
	led := newLedger(lbas)
	vol := faultyVolume{blocks: map[uint64][]byte{}, stale: map[uint64][]byte{}, staleAt: lbas}
	eng := sim.New()
	eng.Go("writer", func(p *sim.Proc) {
		led.write(p, &vol, time.Millisecond, 2*time.Millisecond) // LBAs 1 and 2 only
		if strict, lax := led.verify(p, &vol, true), led.verify(p, &vol, false); strict != 2 || lax != 0 {
			t.Errorf("never-acked LBAs: strict %d lax %d, want 2 and 0", strict, lax)
		}
	})
	eng.Run()
}

func TestOutageWindows(t *testing.T) {
	ms := time.Millisecond
	gap := campaignWindowGap
	plan := faults.Plan{Events: []faults.Event{{At: 1000 * ms}, {At: 3000 * ms}}}
	for _, tc := range []struct {
		name string
		lost []oasis.Duration
		want string // windows as [start end near-a-fault]
	}{
		{"no loss", nil, "[]"},
		{"one probe", []oasis.Duration{1010 * ms}, "[{1.01s 1.01s true}]"},
		{"gap just under the limit joins", []oasis.Duration{1010 * ms, 1010*ms + gap - 1}, "[{1.01s 1.109999999s true}]"},
		{"gap at the limit splits", []oasis.Duration{1010 * ms, 1010*ms + gap}, "[{1.01s 1.01s true} {1.11s 1.11s true}]"},
		{"a window stretches by its last loss, not its first", []oasis.Duration{1010 * ms, 1100 * ms, 1190 * ms}, "[{1.01s 1.19s true}]"},
		{"before any fault", []oasis.Duration{999 * ms}, "[{999ms 999ms false}]"},
		{"at the edges of the slack", []oasis.Duration{1000 * ms, 1000*ms + campaignFaultSlack, 3000*ms + campaignFaultSlack + 1},
			"[{1s 1s true} {1.5s 1.5s true} {3.500000001s 3.500000001s false}]"},
	} {
		got := []string{}
		for _, w := range outages(tc.lost, gap) {
			got = append(got, fmt.Sprintf("{%v %v %v}", w.start, w.end, w.nearFault(plan, campaignFaultSlack)))
		}
		if s := fmt.Sprint(got); s != tc.want {
			t.Errorf("%s: windows = %s, want %s", tc.name, s, tc.want)
		}
	}
}
