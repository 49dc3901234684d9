package metrics

import (
	"fmt"
	"slices"
	"strings"
	"time"
)

// Meter accumulates bytes by category. The CXL pool uses one Meter per port
// and direction to produce Table 3's payload-vs-message breakdown; NICs use
// one per direction for utilization accounting.
//
// A meter sees a handful of categories and an Add per CXL line, so they are
// a small slice kept in name order and searched linearly: no string hashing
// on the hot path, and Len/CategoryAt walk them in order with no copy. The
// zero value is an empty meter.
type Meter struct {
	cats  []meterCategory
	total int64
}

type meterCategory struct {
	name  string
	bytes int64
}

// NewMeter returns an empty meter.
func NewMeter() *Meter { return &Meter{} }

// Add accumulates n bytes under the category, creating it (even for n = 0)
// on first use.
func (m *Meter) Add(category string, n int64) {
	if n < 0 {
		panic("metrics: negative byte count")
	}
	*m.counter(category) += n
	m.total += n
}

// counter returns the byte count of a category, inserting it in name order
// if it is new.
func (m *Meter) counter(category string) *int64 {
	i := m.find(category)
	if i < 0 {
		i, _ = slices.BinarySearchFunc(m.cats, category, func(mc meterCategory, c string) int {
			return strings.Compare(mc.name, c)
		})
		m.cats = slices.Insert(m.cats, i, meterCategory{name: category})
	}
	return &m.cats[i].bytes
}

// find returns the index of a category, or -1.
func (m *Meter) find(category string) int {
	for i := range m.cats {
		if m.cats[i].name == category {
			return i
		}
	}
	return -1
}

// Total returns all bytes ever added.
func (m *Meter) Total() int64 { return m.total }

// Category returns the bytes added under one category.
func (m *Meter) Category(c string) int64 {
	if i := m.find(c); i >= 0 {
		return m.cats[i].bytes
	}
	return 0
}

// Len returns the number of categories.
func (m *Meter) Len() int { return len(m.cats) }

// CategoryAt returns the i-th category in name order and its bytes, for
// 0 <= i < Len(): the meter's in-order iterator.
func (m *Meter) CategoryAt(i int) (name string, bytes int64) {
	return m.cats[i].name, m.cats[i].bytes
}

// Rate returns the average throughput in bytes/second over the elapsed
// virtual time (0 if elapsed is not positive).
func (m *Meter) Rate(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(m.total) / elapsed.Seconds()
}

// CategoryRate returns a single category's average throughput in bytes/s.
func (m *Meter) CategoryRate(c string, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(m.Category(c)) / elapsed.Seconds()
}

// Snapshot returns a copy of the per-category totals.
func (m *Meter) Snapshot() map[string]int64 {
	out := make(map[string]int64, len(m.cats))
	for _, mc := range m.cats {
		out[mc.name] = mc.bytes
	}
	return out
}

// Diff returns the per-category bytes added since the snapshot was taken.
func (m *Meter) Diff(snap map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(m.cats))
	for _, mc := range m.cats {
		if d := mc.bytes - snap[mc.name]; d != 0 {
			out[mc.name] = d
		}
	}
	return out
}

// Reset clears all counts.
func (m *Meter) Reset() {
	m.cats = nil
	m.total = 0
}

// String renders per-category totals.
func (m *Meter) String() string {
	var b strings.Builder
	b.WriteString("meter{")
	for i, mc := range m.cats {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s: %d", mc.name, mc.bytes)
	}
	b.WriteString("}")
	return b.String()
}

// GBps converts bytes-per-second to the paper's GB/s (10^9 bytes).
func GBps(bytesPerSecond float64) float64 { return bytesPerSecond / 1e9 }
