package relation

// 64-bit FNV-1a constants.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func valuesEqual(a, b []Value) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// tableSize returns the open-addressing table size for n entries:
// the smallest power of two ≥ 2n, at least 16, so load stays ≤ 50%
// for tables built in one shot (join build sides, semijoin key sets).
func tableSize(n int) int {
	size := 16
	for size < 2*n {
		size *= 2
	}
	return size
}
