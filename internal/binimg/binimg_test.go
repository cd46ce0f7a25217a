package binimg

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleImage() *Image {
	im := &Image{
		Entry:    DefaultTextBase,
		TextBase: DefaultTextBase,
		Text:     []uint32{0x27bdfff8, 0xafbf0000, 0x03e00008, 0x0000000d},
		DataBase: DefaultDataBase,
		Data:     []byte{1, 2, 3, 4, 5},
		Symbols: []Symbol{
			{Name: "main", Addr: DefaultTextBase, Size: 12},
			{Name: "kernel", Addr: DefaultTextBase + 12, Size: 4},
		},
	}
	return im
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	im := sampleImage()
	b, err := im.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(im, back) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, im)
	}
}

func TestMarshalUnmarshalProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func() bool {
		im := &Image{
			Entry:    r.Uint32(),
			TextBase: r.Uint32() &^ 3,
			DataBase: r.Uint32(),
		}
		for i, n := 0, r.Intn(64); i < n; i++ {
			im.Text = append(im.Text, r.Uint32())
		}
		for i, n := 0, r.Intn(64); i < n; i++ {
			im.Data = append(im.Data, byte(r.Uint32()))
		}
		for i, n := 0, r.Intn(5); i < n; i++ {
			im.Symbols = append(im.Symbols, Symbol{
				Name: string(rune('a' + i)),
				Addr: uint32(i * 8),
				Size: uint32(r.Intn(100)),
			})
		}
		b, err := im.Marshal()
		if err != nil {
			return false
		}
		back, err := Unmarshal(b)
		if err != nil {
			return false
		}
		// Empty slices may round-trip as nil; normalize.
		if len(im.Text) == 0 {
			im.Text = back.Text
		}
		if len(im.Data) == 0 {
			im.Data = back.Data
		}
		return reflect.DeepEqual(im, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	im := sampleImage()
	good, err := im.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":          {},
		"bad magic":      append([]byte("XXXX"), good[4:]...),
		"truncated head": good[:10],
		"truncated text": good[:30],
		"huge text":      func() []byte { b := append([]byte(nil), good...); b[12] = 0xff; b[13] = 0xff; b[14] = 0xff; return b }(),
	}
	for name, data := range cases {
		if _, err := Unmarshal(data); err == nil {
			t.Errorf("%s: Unmarshal succeeded, want error", name)
		}
	}
}

func TestWordAt(t *testing.T) {
	im := sampleImage()
	w, err := im.WordAt(DefaultTextBase + 8)
	if err != nil {
		t.Fatal(err)
	}
	if w != 0x03e00008 {
		t.Errorf("WordAt = 0x%08x, want jr $ra", w)
	}
	if _, err := im.WordAt(DefaultTextBase + 1); err == nil {
		t.Error("misaligned WordAt succeeded")
	}
	if _, err := im.WordAt(DefaultTextBase + 100); err == nil {
		t.Error("out-of-range WordAt succeeded")
	}
}

func TestSymbolLookup(t *testing.T) {
	im := sampleImage()
	s, ok := im.SymbolAt(DefaultTextBase + 4)
	if !ok || s.Name != "main" {
		t.Errorf("SymbolAt(main+4) = %+v,%v", s, ok)
	}
	s, ok = im.SymbolAt(DefaultTextBase + 12)
	if !ok || s.Name != "kernel" {
		t.Errorf("SymbolAt(kernel) = %+v,%v", s, ok)
	}
	if _, ok := im.SymbolAt(DefaultTextBase + 100); ok {
		t.Error("SymbolAt past end of sized symbol succeeded")
	}
	if _, ok := im.Lookup("nope"); ok {
		t.Error("Lookup(nope) succeeded")
	}
	if s, ok := im.Lookup("kernel"); !ok || s.Addr != DefaultTextBase+12 {
		t.Errorf("Lookup(kernel) = %+v,%v", s, ok)
	}
}

func TestSectionBounds(t *testing.T) {
	im := sampleImage()
	if im.TextEnd() != DefaultTextBase+16 {
		t.Errorf("TextEnd = 0x%x", im.TextEnd())
	}
	if im.DataEnd() != DefaultDataBase+5 {
		t.Errorf("DataEnd = 0x%x", im.DataEnd())
	}
	if !im.InText(DefaultTextBase) || im.InText(DefaultTextBase+16) {
		t.Error("InText bounds wrong")
	}
}

func TestMemZeroValueReadsZero(t *testing.T) {
	var m Mem
	if got := m.ReadWord(DefaultDataBase); got != 0 {
		t.Errorf("untouched word = 0x%x, want 0", got)
	}
	if got := m.Page(0)[0]; got != 0 {
		t.Errorf("untouched byte = 0x%x, want 0", got)
	}
}

func TestMemWordRoundTrip(t *testing.T) {
	var m Mem
	addrs := []uint32{0x1000, DefaultDataBase, DefaultStackTop - 4, 0xffff_fffc}
	for i, addr := range addrs {
		want := uint32(0xdead_0000 + i)
		m.WriteWord(addr, want)
		if got := m.ReadWord(addr); got != want {
			t.Errorf("ReadWord(0x%x) = 0x%x, want 0x%x", addr, got, want)
		}
	}
	// Little-endian layout through the page view.
	m.WriteWord(0x2000, 0x0403_0201)
	p := m.Page(0x2000)
	for i, want := range []byte{1, 2, 3, 4} {
		if p[i] != want {
			t.Errorf("byte %d = %d, want %d", i, p[i], want)
		}
	}
}

func TestMemCrossPageWord(t *testing.T) {
	var m Mem
	addr := uint32(PageSize - 2) // spans the page 0 / page 1 boundary
	m.WriteWord(addr, 0x8765_4321)
	if got := m.ReadWord(addr); got != 0x8765_4321 {
		t.Errorf("cross-page word = 0x%x", got)
	}
	if got := m.Page(PageSize)[0]; got != 0x65 {
		t.Errorf("second-page byte = 0x%x, want 0x65", got)
	}
}

func TestMemWriteBytesSpansPages(t *testing.T) {
	var m Mem
	b := make([]byte, 3*PageSize)
	for i := range b {
		b[i] = byte(i * 7)
	}
	base := uint32(DefaultDataBase + 100)
	m.WriteBytes(base, b)
	for _, i := range []int{0, 1, PageSize - 1, PageSize, 2*PageSize + 5, len(b) - 1} {
		addr := base + uint32(i)
		if got := m.Page(addr)[addr&PageMask]; got != b[i] {
			t.Errorf("byte %d = 0x%x, want 0x%x", i, got, b[i])
		}
	}
}

func TestMemLastPageCacheAliasesDirectory(t *testing.T) {
	var m Mem
	p1 := m.Page(0x5000)
	p1[0] = 42
	m.Page(0x9000) // evict the last-page cache
	if got := m.Page(0x5000)[0]; got != 42 {
		t.Errorf("page content lost across cache eviction: %d", got)
	}
}

// ReadWord returns the 32-bit little-endian word at addr; the tests read
// memory through it. The address need not be aligned; an access spanning
// a page boundary is assembled byte-wise.
func (m *Mem) ReadWord(addr uint32) uint32 {
	off := addr & PageMask
	if off <= PageSize-4 {
		return binary.LittleEndian.Uint32(m.Page(addr)[off:])
	}
	var v uint32
	for i := uint32(0); i < 4; i++ {
		v |= uint32(m.Page(addr + i)[(addr+i)&PageMask]) << (8 * i)
	}
	return v
}

// WriteWord stores a 32-bit little-endian word at addr, byte-wise when
// the access spans a page boundary.
func (m *Mem) WriteWord(addr uint32, v uint32) {
	off := addr & PageMask
	if off <= PageSize-4 {
		binary.LittleEndian.PutUint32(m.Page(addr)[off:], v)
		return
	}
	for i := uint32(0); i < 4; i++ {
		m.Page(addr + i)[(addr+i)&PageMask] = byte(v >> (8 * i))
	}
}
