// Package binimg defines the Simple Binary Format (SBF), the executable
// container produced by the MicroC compiler and consumed by the simulator
// and the decompiler. An SBF image has a text section of MIPS machine words,
// an initialized data section, a symbol table of function entry points, and
// an entry address.
//
// The decompiler deliberately uses only what a real binary provides: raw
// machine words, section bounds, and (optionally) function symbols. All
// high-level information — loops, induction variables, array bounds — must
// be recovered by decompilation, which is the point of the reproduced paper.
package binimg

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// Default load addresses. Text is placed low, data above it, and the stack
// grows down from the top of the simulated address space.
const (
	DefaultTextBase = 0x0040_0000
	DefaultDataBase = 0x1000_0000
	DefaultStackTop = 0x7fff_f000
)

// Symbol names a byte address in the image, typically a function entry.
type Symbol struct {
	Name string
	Addr uint32
	Size uint32 // bytes of text covered by the symbol; 0 if unknown
}

// Image is a loaded or freshly compiled program.
type Image struct {
	Entry    uint32   // address of the first instruction to execute
	TextBase uint32   // byte address of Text[0]
	Text     []uint32 // machine words
	DataBase uint32   // byte address of Data[0]
	Data     []byte   // initialized data section
	Symbols  []Symbol // sorted by Addr

	keyOnce sync.Once
	key     Digest
}

// Digest is a SHA-256 content address of an image.
type Digest [sha256.Size]byte

// Key content-addresses the image: a SHA-256 over every field the
// simulator, decompiler, and synthesizer can observe, so two images with
// equal contents (say, one binary uploaded twice) share stage-cache
// entries. Variable-length fields are length-prefixed, so distinct
// images cannot collide by concatenation. The digest is memoized —
// stage-cache lookups key on it several times per run, and the text
// section dominates the hashing cost — so Key must only be called once
// the image is fully built; later mutations are not reflected.
func (im *Image) Key() Digest {
	im.keyOnce.Do(func() {
		// Writes to a hash never fail, so the write errors are dropped.
		h := sha256.New()
		w := bufio.NewWriterSize(h, 512)
		var n [4]byte
		u32 := func(v uint32) { w.Write(binary.LittleEndian.AppendUint32(n[:0], v)) }
		u32(im.Entry)
		u32(im.TextBase)
		u32(uint32(len(im.Text)))
		for _, t := range im.Text {
			u32(t)
		}
		u32(im.DataBase)
		u32(uint32(len(im.Data)))
		w.Write(im.Data)
		u32(uint32(len(im.Symbols)))
		for _, s := range im.Symbols {
			u32(uint32(len(s.Name)))
			w.WriteString(s.Name)
			u32(s.Addr)
			u32(s.Size)
		}
		w.Flush()
		h.Sum(im.key[:0])
	})
	return im.key
}

// TextEnd returns the byte address one past the last text word.
func (im *Image) TextEnd() uint32 { return im.TextBase + uint32(4*len(im.Text)) }

// DataEnd returns the byte address one past the last data byte.
func (im *Image) DataEnd() uint32 { return im.DataBase + uint32(len(im.Data)) }

// InText reports whether addr falls inside the text section.
func (im *Image) InText(addr uint32) bool {
	return addr >= im.TextBase && addr < im.TextEnd()
}

// WordAt returns the text word at the given byte address.
func (im *Image) WordAt(addr uint32) (uint32, error) {
	if !im.InText(addr) {
		return 0, fmt.Errorf("binimg: address 0x%x outside text [0x%x,0x%x)", addr, im.TextBase, im.TextEnd())
	}
	if addr%4 != 0 {
		return 0, fmt.Errorf("binimg: misaligned text address 0x%x", addr)
	}
	return im.Text[(addr-im.TextBase)/4], nil
}

// SymbolAt returns the symbol covering addr, preferring an exact match.
func (im *Image) SymbolAt(addr uint32) (Symbol, bool) {
	i := sort.Search(len(im.Symbols), func(i int) bool { return im.Symbols[i].Addr > addr })
	if i == 0 {
		return Symbol{}, false
	}
	s := im.Symbols[i-1]
	if s.Size > 0 && addr >= s.Addr+s.Size {
		return Symbol{}, false
	}
	return s, true
}

// Lookup returns the symbol with the given name.
func (im *Image) Lookup(name string) (Symbol, bool) {
	for _, s := range im.Symbols {
		if s.Name == name {
			return s, true
		}
	}
	return Symbol{}, false
}

// SortSymbols orders the symbol table by address; it must be called after
// symbols are appended out of order.
func (im *Image) SortSymbols() {
	sort.Slice(im.Symbols, func(i, j int) bool { return im.Symbols[i].Addr < im.Symbols[j].Addr })
}

// SBF serialization.
//
//	magic   [4]byte "SBF1"
//	entry, textBase, textWords, dataBase, dataLen, symCount  uint32 (LE)
//	text    textWords * uint32
//	data    dataLen bytes
//	symbols repeated: nameLen uint16, name, addr uint32, size uint32

var magic = [4]byte{'S', 'B', 'F', '1'}

// Marshal serializes the image to the SBF byte format.
func (im *Image) Marshal() ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(magic[:])
	hdr := []uint32{
		im.Entry, im.TextBase, uint32(len(im.Text)),
		im.DataBase, uint32(len(im.Data)), uint32(len(im.Symbols)),
	}
	for _, v := range hdr {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			return nil, err
		}
	}
	for _, w := range im.Text {
		if err := binary.Write(&buf, binary.LittleEndian, w); err != nil {
			return nil, err
		}
	}
	buf.Write(im.Data)
	for _, s := range im.Symbols {
		if len(s.Name) > 0xffff {
			return nil, fmt.Errorf("binimg: symbol name too long (%d bytes)", len(s.Name))
		}
		if err := binary.Write(&buf, binary.LittleEndian, uint16(len(s.Name))); err != nil {
			return nil, err
		}
		buf.WriteString(s.Name)
		if err := binary.Write(&buf, binary.LittleEndian, s.Addr); err != nil {
			return nil, err
		}
		if err := binary.Write(&buf, binary.LittleEndian, s.Size); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// Unmarshal parses an SBF byte stream.
func Unmarshal(data []byte) (*Image, error) {
	r := bytes.NewReader(data)
	var m [4]byte
	if _, err := r.Read(m[:]); err != nil || m != magic {
		return nil, fmt.Errorf("binimg: bad magic")
	}
	var hdr [6]uint32
	for i := range hdr {
		if err := binary.Read(r, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("binimg: truncated header: %w", err)
		}
	}
	im := &Image{Entry: hdr[0], TextBase: hdr[1], DataBase: hdr[3]}
	nText, nData, nSym := hdr[2], hdr[4], hdr[5]
	if int64(nText)*4 > int64(r.Len()) {
		return nil, fmt.Errorf("binimg: text section (%d words) exceeds file size", nText)
	}
	im.Text = make([]uint32, nText)
	for i := range im.Text {
		if err := binary.Read(r, binary.LittleEndian, &im.Text[i]); err != nil {
			return nil, fmt.Errorf("binimg: truncated text: %w", err)
		}
	}
	if int64(nData) > int64(r.Len()) {
		return nil, fmt.Errorf("binimg: data section (%d bytes) exceeds file size", nData)
	}
	im.Data = make([]byte, nData)
	if nData > 0 {
		if _, err := r.Read(im.Data); err != nil {
			return nil, fmt.Errorf("binimg: truncated data: %w", err)
		}
	}
	for i := uint32(0); i < nSym; i++ {
		var nameLen uint16
		if err := binary.Read(r, binary.LittleEndian, &nameLen); err != nil {
			return nil, fmt.Errorf("binimg: truncated symbol table: %w", err)
		}
		name := make([]byte, nameLen)
		if _, err := r.Read(name); err != nil {
			return nil, fmt.Errorf("binimg: truncated symbol name: %w", err)
		}
		var s Symbol
		s.Name = string(name)
		if err := binary.Read(r, binary.LittleEndian, &s.Addr); err != nil {
			return nil, fmt.Errorf("binimg: truncated symbol: %w", err)
		}
		if err := binary.Read(r, binary.LittleEndian, &s.Size); err != nil {
			return nil, fmt.Errorf("binimg: truncated symbol: %w", err)
		}
		im.Symbols = append(im.Symbols, s)
	}
	im.SortSymbols()
	return im, nil
}
