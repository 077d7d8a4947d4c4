package sqltypes

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Value is an unboxed SQL value: a small union struct that avoids
// interface boxing on hot paths. The zero Value is NULL.
//
// Value is comparable with == (all fields are comparable), which lets it be
// used directly as a Ctrie or map key; == equality coincides with SQL
// equality for values of the same type (NULL == NULL as a key, which is the
// behaviour an index wants, while expression evaluation treats NULL
// comparisons as NULL separately).
type Value struct {
	// T is the value's type; Unknown means NULL.
	T Type
	// I holds Bool (0/1), Int32, Int64 and Timestamp payloads.
	I int64
	// F holds Float64 payloads.
	F float64
	// S holds String payloads.
	S string
}

// Null is the SQL NULL value.
var Null = Value{}

// NewBool returns a BOOLEAN value.
func NewBool(b bool) Value {
	v := Value{T: Bool}
	if b {
		v.I = 1
	}
	return v
}

// NewInt32 returns an INT value.
func NewInt32(i int32) Value { return Value{T: Int32, I: int64(i)} }

// NewInt64 returns a BIGINT value.
func NewInt64(i int64) Value { return Value{T: Int64, I: i} }

// NewFloat64 returns a DOUBLE value.
func NewFloat64(f float64) Value { return Value{T: Float64, F: f} }

// NewString returns a STRING value.
func NewString(s string) Value { return Value{T: String, S: s} }

// NewTimestamp returns a TIMESTAMP value from microseconds since the epoch.
func NewTimestamp(micros int64) Value { return Value{T: Timestamp, I: micros} }

// NewTimestampFromTime converts a time.Time to a TIMESTAMP value.
func NewTimestampFromTime(t time.Time) Value {
	return Value{T: Timestamp, I: t.UnixMicro()}
}

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.T == Unknown }

// Bool returns the boolean payload; callers must check the type first.
func (v Value) Bool() bool { return v.I != 0 }

// Int64Val returns the integral payload widened to int64.
func (v Value) Int64Val() int64 { return v.I }

// Float64Val returns the numeric payload widened to float64.
func (v Value) Float64Val() float64 {
	if v.T == Float64 {
		return v.F
	}
	return float64(v.I)
}

// StringVal returns the string payload.
func (v Value) StringVal() string { return v.S }

// Time returns the timestamp payload as a time.Time.
func (v Value) Time() time.Time { return time.UnixMicro(v.I).UTC() }

// String renders the value the way a CLI would print a cell.
func (v Value) String() string {
	switch v.T {
	case Unknown:
		return "NULL"
	case Bool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case Int32, Int64:
		return strconv.FormatInt(v.I, 10)
	case Float64:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case String:
		return v.S
	case Timestamp:
		return v.Time().Format("2006-01-02 15:04:05.000000")
	default:
		return fmt.Sprintf("Value(%d)", v.T)
	}
}

// Cast converts v to type t, following SQL implicit-cast semantics.
// NULL casts to NULL of any type.
func (v Value) Cast(t Type) (Value, error) {
	if v.IsNull() || v.T == t {
		if v.IsNull() {
			return Null, nil
		}
		return v, nil
	}
	switch t {
	case Int32:
		switch v.T {
		case Int64, Timestamp:
			if v.I > math.MaxInt32 || v.I < math.MinInt32 {
				return Null, fmt.Errorf("sqltypes: %d overflows INT", v.I)
			}
			return NewInt32(int32(v.I)), nil
		case Float64:
			return NewInt32(int32(v.F)), nil
		case String:
			i, err := strconv.ParseInt(strings.TrimSpace(v.S), 10, 32)
			if err != nil {
				return Null, fmt.Errorf("sqltypes: cannot cast %q to INT", v.S)
			}
			return NewInt32(int32(i)), nil
		case Bool:
			return NewInt32(int32(v.I)), nil
		}
	case Int64:
		switch v.T {
		case Int32, Timestamp, Bool:
			return NewInt64(v.I), nil
		case Float64:
			return NewInt64(int64(v.F)), nil
		case String:
			i, err := strconv.ParseInt(strings.TrimSpace(v.S), 10, 64)
			if err != nil {
				return Null, fmt.Errorf("sqltypes: cannot cast %q to BIGINT", v.S)
			}
			return NewInt64(i), nil
		}
	case Float64:
		switch v.T {
		case Int32, Int64, Timestamp, Bool:
			return NewFloat64(float64(v.I)), nil
		case String:
			f, err := strconv.ParseFloat(strings.TrimSpace(v.S), 64)
			if err != nil {
				return Null, fmt.Errorf("sqltypes: cannot cast %q to DOUBLE", v.S)
			}
			return NewFloat64(f), nil
		}
	case String:
		return NewString(v.String()), nil
	case Timestamp:
		switch v.T {
		case Int32, Int64:
			return NewTimestamp(v.I), nil
		case String:
			for _, layout := range []string{
				"2006-01-02 15:04:05.000000",
				"2006-01-02 15:04:05",
				"2006-01-02",
				time.RFC3339,
			} {
				if ts, err := time.Parse(layout, v.S); err == nil {
					return NewTimestampFromTime(ts), nil
				}
			}
			return Null, fmt.Errorf("sqltypes: cannot cast %q to TIMESTAMP", v.S)
		}
	case Bool:
		switch v.T {
		case Int32, Int64:
			return NewBool(v.I != 0), nil
		case String:
			b, err := strconv.ParseBool(strings.TrimSpace(v.S))
			if err != nil {
				return Null, fmt.Errorf("sqltypes: cannot cast %q to BOOLEAN", v.S)
			}
			return NewBool(b), nil
		}
	}
	return Null, fmt.Errorf("sqltypes: cannot cast %s to %s", v.T, t)
}

// Compare orders two values. NULL sorts first. Values of different numeric
// types compare numerically; otherwise types must match.
// It returns -1, 0 or +1.
func Compare(a, b Value) int {
	switch {
	case a.IsNull() && b.IsNull():
		return 0
	case a.IsNull():
		return -1
	case b.IsNull():
		return 1
	}
	if a.T.Numeric() && b.T.Numeric() && (a.T == Float64 || b.T == Float64) {
		af, bf := a.Float64Val(), b.Float64Val()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	switch a.T {
	case Bool, Int32, Int64, Timestamp:
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		default:
			return 0
		}
	case Float64:
		switch {
		case a.F < b.F:
			return -1
		case a.F > b.F:
			return 1
		default:
			return 0
		}
	case String:
		return strings.Compare(a.S, b.S)
	}
	return 0
}

// Equal reports SQL equality of two non-null values (numeric values of
// different widths compare by value). Returns false if either is NULL.
func Equal(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	return Compare(a, b) == 0
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvMix(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

func fnvUint64(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvMix(h, byte(x))
		x >>= 8
	}
	return h
}

// Hash64 returns a 64-bit hash of the value, used both by the hash
// partitioner and the Ctrie index. Numeric values of different widths that
// compare equal hash equally (integers hash by their int64 payload). The
// hash is deterministic across processes so partition layouts reproduce.
func (v Value) Hash64() uint64 {
	switch v.T {
	case Unknown:
		return HashNull()
	case Bool, Int32, Int64, Timestamp:
		return HashInt64(v.I)
	case Float64:
		return HashFloat64(v.F)
	case String:
		return HashString(v.S)
	}
	return HashSeed
}

// The payload hash primitives below are Hash64 broken out by lane so the
// exchange can hash column payloads directly (no Value boxing) while
// routing each row to exactly the partition the Indexed DataFrame stores
// its key in (Hash64 of the normalized key). Any change here changes the
// exchange's and the index's partition layouts together.

// HashSeed is the hash state every value hash starts from (the FNV-1a
// offset basis); CombineHash folds per-column hashes into it for
// composite keys.
const HashSeed uint64 = fnvOffset64

// CombineHash folds x into the running hash h byte-by-byte (FNV-1a) —
// the composite-key combiner of the exchange's routing hash.
func CombineHash(h, x uint64) uint64 { return fnvUint64(h, x) }

// RehashSalted remixes a routing hash with a per-level salt through a
// full-avalanche finalizer (splitmix64). Recursive spill fan-outs route
// with this rather than folding the salt through FNV: FNV's byte-wise
// fold carries almost no fresh entropy into the low bits from one salt
// to the next, so conditioned on the previous level's bucket a salted
// re-partitioning could send every row of a partition to the same
// sub-bucket at every deeper level — recursion without subdivision.
func RehashSalted(h, salt uint64) uint64 {
	x := h + salt*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HashInt64 hashes an integer-family payload (Bool/Int32/Int64/Timestamp
// lanes all hash by their widened int64).
func HashInt64(x int64) uint64 { return fnvUint64(HashSeed, uint64(x)) }

// HashFloat64 hashes a Float64 payload; integral doubles hash like the
// equal integer so SQL-equal numerics land in the same partition.
func HashFloat64(f float64) uint64 {
	if f == math.Trunc(f) && f >= math.MinInt64 && f <= math.MaxInt64 {
		return fnvUint64(HashSeed, uint64(int64(f)))
	}
	return fnvUint64(HashSeed, math.Float64bits(f))
}

// HashString hashes a String payload.
func HashString(s string) uint64 {
	h := HashSeed
	for i := 0; i < len(s); i++ {
		h = fnvMix(h, s[i])
	}
	return h
}

// HashNull is the hash of SQL NULL (all NULLs route together).
func HashNull() uint64 { return fnvMix(HashSeed, 0xff) }
