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

	// Lower and optimize every function.
	var tfs []*tacFunc
	for _, fn := range prog.Funcs {
		tf, err := lowerFunc(fn, opts.OptLevel == 0, opts.OptLevel >= 1)
		if err != nil {
			return nil, err
		}
		optimize(tf, opts.OptLevel)
		tfs = append(tfs, tf)
	}

	// Lay out the data section: globals first, then switch jump tables.
	globals := make(map[string]uint32)
	var data []byte
	addGlobal := func(name string, size, align int) uint32 {
		for len(data)%align != 0 {
			data = append(data, 0)
		}
		addr := opts.DataBase + uint32(len(data))
		globals[name] = addr
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
		addr := addGlobal(g.Name, g.Type.Size(), align)
		if err := initGlobal(data, addr-opts.DataBase, g); err != nil {
			return nil, err
		}
	}
	type tableLoc struct {
		table jumpTable
		fn    string
		off   uint32 // offset into data
	}
	var tables []tableLoc
	for i, tf := range tfs {
		for _, t := range tf.Tables {
			addr := addGlobal(t.Sym, 4*len(t.Labels), 4)
			tables = append(tables, tableLoc{table: t, fn: tfs[i].Name, off: addr - opts.DataBase})
		}
	}

	// Generate machine code for each function.
	var gfs []*genFunc
	for _, tf := range tfs {
		gf, err := genFunction(tf, globals)
		if err != nil {
			return nil, err
		}
		gfs = append(gfs, gf)
	}

	// Place: _start stub then functions in source order.
	im := &binimg.Image{
		Entry:    opts.TextBase,
		TextBase: opts.TextBase,
		DataBase: opts.DataBase,
		Data:     data,
	}
	funcAddr := make(map[string]uint32)
	funcOf := make(map[string]*genFunc)
	cursor := opts.TextBase + 8 // after jal main; break
	for _, gf := range gfs {
		funcAddr[gf.name] = cursor
		funcOf[gf.name] = gf
		cursor += uint32(4 * len(gf.insts))
	}

	// Patch call targets.
	for _, gf := range gfs {
		for _, fx := range gf.callFix {
			target, ok := funcAddr[fx.callee]
			if !ok {
				return nil, fmt.Errorf("mcc: call to undefined function %q", fx.callee)
			}
			gf.insts[fx.instIdx].Target = target
		}
	}
	// Patch jump tables with absolute label addresses.
	for _, tl := range tables {
		gf := funcOf[tl.fn]
		for i, label := range tl.table.Labels {
			pos, ok := gf.labelAddr[label]
			if !ok {
				return nil, fmt.Errorf("mcc: jump table references unknown label %q", label)
			}
			addr := funcAddr[tl.fn] + uint32(4*pos)
			binary.LittleEndian.PutUint32(im.Data[tl.off+uint32(4*i):], addr)
		}
	}

	// Encode.
	startInsts := []mips.Inst{
		{Op: mips.JAL, Target: funcAddr["main"]},
		{Op: mips.BREAK},
	}
	for _, in := range startInsts {
		w, err := mips.Encode(in)
		if err != nil {
			return nil, err
		}
		im.Text = append(im.Text, w)
	}
	im.Symbols = append(im.Symbols, binimg.Symbol{Name: "_start", Addr: opts.TextBase, Size: 8})
	for _, gf := range gfs {
		for _, in := range gf.insts {
			w, err := mips.Encode(in)
			if err != nil {
				return nil, fmt.Errorf("mcc: %s: encode %v: %w", gf.name, in, err)
			}
			im.Text = append(im.Text, w)
		}
		im.Symbols = append(im.Symbols, binimg.Symbol{
			Name: gf.name,
			Addr: funcAddr[gf.name],
			Size: uint32(4 * len(gf.insts)),
		})
	}
	for _, g := range prog.Globals {
		im.Symbols = append(im.Symbols, binimg.Symbol{
			Name: g.Name,
			Addr: globals[g.Name],
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
