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
	// TextBase/DataBase override the default load addresses when nonzero.
	TextBase uint32
	DataBase uint32
}

// Compile translates MicroC source into an executable SBF image. The image
// starts at a two-instruction _start stub (jal main; break), so the
// simulator halts with main's return value in $v0.
func Compile(src string, opts Options) (*binimg.Image, error) {
	if opts.OptLevel < 0 || opts.OptLevel > MaxOptLevel {
		return nil, fmt.Errorf("mcc: bad optimization level %d", opts.OptLevel)
	}
	if opts.TextBase == 0 {
		opts.TextBase = binimg.DefaultTextBase
	}
	if opts.DataBase == 0 {
		opts.DataBase = binimg.DefaultDataBase
	}

	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if err := Analyze(prog); err != nil {
		return nil, err
	}
	if opts.OptLevel >= 3 {
		unrollProgram(prog)
	}

	sc := new(scratch)
	u := newUnit(prog, sc)

	// Lay out the data section: globals first, then switch jump tables
	// in function order.
	dataAddr := make([]uint32, 0, u.nData)
	var data []byte
	addData := func(size, align int) uint32 {
		for len(data)%align != 0 {
			data = append(data, 0)
		}
		addr := opts.DataBase + uint32(len(data))
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
		if err := initGlobal(data, addr-opts.DataBase, g); err != nil {
			return nil, err
		}
	}

	// Lower, optimize and generate one function at a time, so every
	// function reuses the same TAC buffers. Functions are placed in
	// source order after the two-instruction _start stub, so a function's
	// address is known when its code is generated and only calls need
	// patching afterwards. A function's jump tables are placed once
	// optimization has decided which survive; their data symbols were
	// numbered during lowering.
	var text []mips.Inst
	var calls []callFix
	funcAddr := make([]uint32, len(prog.Funcs)) // by function id: prog.Funcs order
	im := &binimg.Image{
		Entry:    opts.TextBase,
		TextBase: opts.TextBase,
		DataBase: opts.DataBase,
		Symbols:  make([]binimg.Symbol, 0, 1+len(prog.Funcs)+len(prog.Globals)),
	}
	im.Symbols = append(im.Symbols, binimg.Symbol{Name: "_start", Addr: opts.TextBase, Size: 8})
	addrOf := func(idx int32) uint32 { return opts.TextBase + 8 + uint32(4*idx) }
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
			off := dataAddr[t.Sym] - opts.DataBase
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

// initGlobal writes a global's initializer into the data buffer at off.
func initGlobal(data []byte, off uint32, g *VarDecl) error {
	writeVal := func(at uint32, size int, v int32) {
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
		v, ok := evalConstExpr(g.Init)
		if !ok {
			return fmt.Errorf("mcc: global %q: non-constant initializer", g.Name)
		}
		writeVal(off, g.Type.Size(), v)
	}
	if g.Vals != nil {
		es := g.Type.Elem.Size()
		for i, e := range g.Vals {
			v, ok := evalConstExpr(e)
			if !ok {
				return fmt.Errorf("mcc: global %q[%d]: non-constant initializer", g.Name, i)
			}
			writeVal(off+uint32(i*es), es, v)
		}
	}
	return nil
}

// evalConstExpr evaluates a compile-time constant expression.
func evalConstExpr(e Expr) (int32, bool) {
	switch e := e.(type) {
	case *NumLit:
		return e.Val, true
	case *UnExpr:
		v, ok := evalConstExpr(e.X)
		if !ok {
			return 0, false
		}
		switch e.Op {
		case "-":
			return -v, true
		case "~":
			return ^v, true
		case "!":
			if v == 0 {
				return 1, true
			}
			return 0, true
		}
		return 0, false
	case *BinExpr:
		l, ok := evalConstExpr(e.L)
		if !ok {
			return 0, false
		}
		r, ok := evalConstExpr(e.R)
		if !ok {
			return 0, false
		}
		return foldBin(e.Op, l, r, true)
	}
	return 0, false
}
