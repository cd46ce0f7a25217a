package binimg

// Memory page geometry shared by the simulator's flat memory. 4 KiB pages
// keep any naturally aligned 1/2/4-byte access inside one page, so a
// resolved page supports direct little-endian slice accesses.
const (
	PageBits = 12
	PageSize = 1 << PageBits
	PageMask = PageSize - 1
)

// Two-level page-directory split of the 20-bit page number.
const (
	memL1Bits = 10
	memL2Bits = 10
	memL1Size = 1 << memL1Bits
	memL2Size = 1 << memL2Bits
)

// Mem is a sparse byte-addressed 32-bit memory: a two-level page
// directory of 4 KiB pages, allocated on first touch, fronted by a
// one-entry last-page cache. Replacing a flat map[page][]byte with the
// directory turns the per-access cost into two array indexations (or one
// compare on a last-page hit) with no hashing, which is what makes the
// simulator's load/store path cheap. The zero value is ready to use;
// untouched memory reads as zero.
type Mem struct {
	l1       [memL1Size]*[memL2Size][]byte
	lastPN   uint32
	lastPage []byte
	pages    int // pages allocated
}

// Page returns the 4 KiB page containing addr, allocating it on first
// touch. The returned slice aliases the memory: writes through it are
// stores. The fast path is a single compare against the last page used.
func (m *Mem) Page(addr uint32) []byte {
	pn := addr >> PageBits
	if pn == m.lastPN && m.lastPage != nil {
		return m.lastPage
	}
	return m.pageSlow(pn)
}

func (m *Mem) pageSlow(pn uint32) []byte {
	l2 := m.l1[pn>>memL2Bits]
	if l2 == nil {
		l2 = new([memL2Size][]byte)
		m.l1[pn>>memL2Bits] = l2
	}
	p := l2[pn&(memL2Size-1)]
	if p == nil {
		p = make([]byte, PageSize)
		l2[pn&(memL2Size-1)] = p
		m.pages++
	}
	m.lastPN, m.lastPage = pn, p
	return p
}

// Reset zeroes every allocated page in place, keeping the page storage
// so a pooled machine can reuse it without reallocating. After Reset the
// memory is observably identical to a zero-value Mem.
func (m *Mem) Reset() {
	for _, l2 := range m.l1 {
		if l2 == nil {
			continue
		}
		for _, p := range l2 {
			if p != nil {
				clear(p)
			}
		}
	}
	m.lastPN, m.lastPage = 0, nil
}

// Pages reports how many pages the memory holds, touched since it was
// made; Reset keeps them.
func (m *Mem) Pages() int { return m.pages }

// WriteBytes copies b into memory starting at addr, page by page.
func (m *Mem) WriteBytes(addr uint32, b []byte) {
	for len(b) > 0 {
		p := m.Page(addr)
		off := addr & PageMask
		n := copy(p[off:], b)
		b = b[n:]
		addr += uint32(n)
	}
}
