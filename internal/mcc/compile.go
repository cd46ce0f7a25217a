package mcc

import (
	"encoding/binary"
	"fmt"

	"binpart/internal/binimg"
	"binpart/internal/mips"
)

// MaxOptLevel is the highest optimization level Compile accepts.
const MaxOptLevel = 3

// Options configures a compilation.
type Options struct {
	// OptLevel is 0..MaxOptLevel, mirroring -O0..-O3.
	OptLevel int
}

// Compile translates MicroC source into an executable SBF image. The image
// starts at a two-instruction _start stub (jal main; break), so the
// simulator halts with main's return value in $v0.
func Compile(src string, opts Options) (*binimg.Image, error) {
	if opts.OptLevel < 0 || opts.OptLevel > MaxOptLevel {
		return nil, fmt.Errorf("mcc: bad optimization level %d", opts.OptLevel)
	}

	sc := scratches.Get()
	defer sc.release()
	prog, err := parse(src, &sc.toks, &sc.ast)
	if err != nil {
		return nil, err
	}
	if err := analyze(prog, &sc.ast, &sc.scopes); err != nil {
		return nil, err
	}
	if opts.OptLevel >= 3 {
		unrollProgram(prog)
	}

	u := newUnit(prog, sc)

	// Lay out the data section: globals first, then switch jump tables
	// in function order.
	dataAddr := make([]uint32, 0, u.nData)
	var data []byte
	addData := func(size, align int) uint32 {
		for len(data)%align != 0 {
			data = append(data, 0)
		}
		addr := binimg.DefaultDataBase + uint32(len(data))
		data = append(data, make([]byte, size)...)
		return addr
	}
	for _, g := range prog.Globals {
		align := g.Type.Size()
		if g.Type.Kind == TypeArray {
			align = g.Type.Elem.Size()
		}
		if align > 4 {
			align = 4
		}
		if align < 1 {
			align = 1
		}
		addr := addData(g.Type.Size(), align)
		dataAddr = append(dataAddr, addr)
		initGlobal(data, addr-binimg.DefaultDataBase, g)
	}

	// Lower, optimize and generate one function at a time, so every
	// function reuses the same TAC buffers. Functions are placed in
	// source order after the two-instruction _start stub, so a function's
	// address is known when its code is generated and only calls need
	// patching afterwards. A function's jump tables are placed once
	// optimization has decided which survive; their data symbols were
	// numbered during lowering.
	text, calls := sc.text[:0], sc.call[:0]
	defer func() { sc.text, sc.call = text[:0], calls[:0] }()
	funcAddr := make([]uint32, len(prog.Funcs)) // by function id: prog.Funcs order
	im := &binimg.Image{
		Entry:    binimg.DefaultTextBase,
		TextBase: binimg.DefaultTextBase,
		DataBase: binimg.DefaultDataBase,
		Symbols:  make([]binimg.Symbol, 0, 1+len(prog.Funcs)+len(prog.Globals)),
	}
	im.Symbols = append(im.Symbols, binimg.Symbol{Name: "_start", Addr: binimg.DefaultTextBase, Size: 8})
	addrOf := func(idx int32) uint32 { return binimg.DefaultTextBase + 8 + uint32(4*idx) }
	for i, fn := range prog.Funcs {
		tf, err := u.lowerFunc(fn, opts.OptLevel == 0, opts.OptLevel >= 1)
		if err != nil {
			return nil, err
		}
		optimize(tf, opts.OptLevel)
		for len(dataAddr) < int(u.nData) {
			dataAddr = append(dataAddr, 0) // the function's jump tables
		}
		for _, t := range tf.Tables {
			dataAddr[t.Sym] = addData(4*len(t.Labels), 4)
		}
		start := int32(len(text))
		funcAddr[i] = addrOf(start)
		var labelPos []int32
		text, calls, labelPos, err = genFunction(tf, dataAddr, text, calls)
		if err != nil {
			return nil, err
		}
		// Patch the jump tables with absolute label addresses.
		for _, t := range tf.Tables {
			off := dataAddr[t.Sym] - binimg.DefaultDataBase
			for j, label := range t.Labels {
				pos := labelPos[label]
				if pos < 0 {
					return nil, fmt.Errorf("mcc: jump table references unknown label L%d", label)
				}
				binary.LittleEndian.PutUint32(data[off+uint32(4*j):], addrOf(pos))
			}
		}
		sc.recycle(tf)
		im.Symbols = append(im.Symbols, binimg.Symbol{
			Name: fn.Name,
			Addr: funcAddr[i],
			Size: uint32(4 * (int32(len(text)) - start)),
		})
	}
	im.Data = data

	// Patch call targets and encode.
	for _, fx := range calls {
		text[fx.instIdx].Target = funcAddr[fx.callee]
	}
	im.Text = make([]uint32, 0, 2+len(text))
	startInsts := [...]mips.Inst{
		{Op: mips.JAL, Target: funcAddr[u.funcID["main"]]},
		{Op: mips.BREAK},
	}
	for _, in := range startInsts {
		w, err := mips.Encode(in)
		if err != nil {
			return nil, err
		}
		im.Text = append(im.Text, w)
	}
	for _, in := range text {
		w, err := mips.Encode(in)
		if err != nil {
			return nil, fmt.Errorf("mcc: encode %v: %w", in, err)
		}
		im.Text = append(im.Text, w)
	}
	for i, g := range prog.Globals {
		im.Symbols = append(im.Symbols, binimg.Symbol{
			Name: g.Name,
			Addr: dataAddr[i],
			Size: uint32(g.Type.Size()),
		})
	}
	im.SortSymbols()
	return im, nil
}

// initGlobal writes a global's initializer, which sema folded to
// literals, into the data buffer at off.
func initGlobal(data []byte, off uint32, g *VarDecl) {
	writeVal := func(at uint32, size int, e Expr) {
		v := e.(*NumLit).Val
		switch size {
		case 1:
			data[at] = byte(v)
		case 2:
			binary.LittleEndian.PutUint16(data[at:], uint16(v))
		default:
			binary.LittleEndian.PutUint32(data[at:], uint32(v))
		}
	}
	if g.Init != nil {
		writeVal(off, g.Type.Size(), g.Init)
	}
	for i, e := range g.Vals {
		es := g.Type.Elem.Size()
		writeVal(off+uint32(i*es), es, e)
	}
}
