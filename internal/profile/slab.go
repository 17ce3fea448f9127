package profile

// Slab chunks double from slabMin elements up to slabMax, so a small run or
// decode allocates little and a large one wastes at most one part-filled
// chunk per slab.
const (
	slabMin = 16
	slabMax = 1024
)

// Carve returns the next n zeroed elements of slab *s, with cap == len so
// appending to the result never writes into a neighbour. A new chunk starts
// when the current one has no room. The runtime carves its trace records
// this way and the artifact reader its decoded ones.
func Carve[T any](s *[]T, n int) []T {
	if cap(*s)-len(*s) < n {
		*s = make([]T, 0, max(n, min(2*cap(*s), slabMax), slabMin))
	}
	i := len(*s)
	*s = (*s)[:i+n]
	return (*s)[i : i+n : i+n]
}
