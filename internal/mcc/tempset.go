package mcc

import "math/bits"

// tempSet is a dense bitset over a function's temp space (f.NTemp).
// Liveness and dead-code analysis iterate to fixpoints over every block,
// so the sets use flat words instead of maps: one backing allocation per
// analysis, no per-iteration allocation.
type tempSet []uint64

func tempWords(nTemp int) int { return (nTemp + 63) / 64 }

func (s tempSet) has(t Temp) bool { return s[t>>6]&(1<<(uint(t)&63)) != 0 }
func (s tempSet) set(t Temp)      { s[t>>6] |= 1 << (uint(t) & 63) }
func (s tempSet) clear(t Temp)    { s[t>>6] &^= 1 << (uint(t) & 63) }

func (s tempSet) reset() {
	for i := range s {
		s[i] = 0
	}
}

// or unions t into s and reports whether s gained any member.
func (s tempSet) or(t tempSet) bool {
	changed := false
	for i, w := range t {
		if nw := s[i] | w; nw != s[i] {
			s[i] = nw
			changed = true
		}
	}
	return changed
}

// forEach calls fn for every member in ascending order.
func (s tempSet) forEach(fn func(Temp)) {
	for i, w := range s {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(Temp(i*64 + b))
			w &= w - 1
		}
	}
}
