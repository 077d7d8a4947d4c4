package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"time"

	"indexeddf/internal/sqltypes"
)

// samples is a list of observations in one unit (ms, us, ...).
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

func (s *samples) addDur(d time.Duration, unit time.Duration) {
	*s = append(*s, float64(d)/float64(unit))
}

// quantile returns the q-quantile (0..1) by linear interpolation between
// closest ranks; 0 for an empty list.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}

func (s samples) median() float64 { return s.quantile(0.5) }

// failures counts failed operations and keeps the first few errors for
// the report.
type failures struct {
	failed int64
	errs   []string
}

func (f *failures) fail(err error) {
	f.failed++
	if len(f.errs) < 5 {
		f.errs = append(f.errs, err.Error())
	}
}

// rowString renders a row canonically (one value per field, NUL
// separated) for comparisons and checksums.
func rowString(r sqltypes.Row) string {
	var b strings.Builder
	for i, v := range r {
		if i > 0 {
			b.WriteByte(0)
		}
		if v.IsNull() {
			b.WriteString("\x01NULL")
			continue
		}
		b.WriteString(v.String())
	}
	return b.String()
}

// checksum is an order-insensitive digest of a result: the wrapping sum
// of a mixed per-row hash, so equal multisets of rows always agree.
func checksum(rows []sqltypes.Row) uint64 {
	var sum uint64
	for _, r := range rows {
		sum += rowHash(r)
	}
	return sum
}

func rowHash(r sqltypes.Row) uint64 {
	h := fnv.New64a()
	h.Write([]byte(rowString(r)))
	z := h.Sum64() + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// diffRows compares two results as multisets of rows and describes the
// first difference, or returns nil when they hold the same rows.
func diffRows(want, got []sqltypes.Row) error {
	if len(want) != len(got) {
		return fmt.Errorf("want %d rows, got %d", len(want), len(got))
	}
	w := make([]string, len(want))
	g := make([]string, len(got))
	for i := range want {
		w[i] = rowString(want[i])
		g[i] = rowString(got[i])
	}
	sort.Strings(w)
	sort.Strings(g)
	for i := range w {
		if w[i] != g[i] {
			return fmt.Errorf("row %d differs: want %q, got %q", i, w[i], g[i])
		}
	}
	return nil
}
