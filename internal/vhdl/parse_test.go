package vhdl

import (
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func TestTokenizer(t *testing.T) {
	toks, lines, err := tokenize(`entity e1 is -- comment gone
		port (clk : in std_logic);
	end e1;
	x <= "0101"; y := '1'; z /= 2;`)
	want := []string{
		"entity", "e1", "is",
		"port", "(", "clk", ":", "in", "std_logic", ")", ";",
		"end", "e1", ";",
		"x", "<=", `"0101"`, ";", "y", ":=", "'1'", ";", "z", "/=", "2", ";",
	}
	if err != nil || !reflect.DeepEqual(toks, want) {
		t.Errorf("tokenize mismatch (%v):\n got %q\nwant %q", err, toks, want)
	}
	if lines[0] != 1 || lines[3] != 2 || lines[len(lines)-1] != 4 {
		t.Errorf("token lines %v", lines)
	}
}

func TestTokenizerCaseFolding(t *testing.T) {
	toks, _, _ := tokenize("ENTITY Foo IS")
	if toks[0] != "entity" || toks[1] != "foo" || toks[2] != "is" {
		t.Errorf("identifiers not folded: %q", toks)
	}
}

const minimalVHDL = `
library ieee;
use ieee.std_logic_1164.all;
entity top is
  port (
    clk : in std_logic;
    q   : out std_logic
  );
end top;
architecture rtl of top is
  signal s : std_logic;
begin
  p : process (clk)
  begin
    if rising_edge(clk) then
      s <= '1';
      q <= s;
    end if;
  end process p;
end rtl;
`

func TestCheckAcceptsMinimal(t *testing.T) {
	if err := Check(minimalVHDL); err != nil {
		t.Errorf("minimal VHDL rejected: %v", err)
	}
}

func TestSanitize(t *testing.T) {
	cases := map[string]string{
		"kernel_loop_0x400018": "kernel_loop_0x400018",
		"weird name!":          "weird_name_",
		"0starts_digit":        "dsn_0starts_digit",
		"":                     "dsn_",
	}
	for in, want := range cases {
		if got := sanitize(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

// mutant is one corruption of an emitted file.
type mutant struct{ class, text string }

var (
	declRe  = regexp.MustCompile(`^\s*(?:signal|variable)\s+(\w+)\s*:|^\s*(\w+)\s*:\s*(?:in|out)\s`)
	enumRe  = regexp.MustCompile(`^\s*type\s+\w+\s+is\s+\((.*)\);`)
	identRe = regexp.MustCompile(`[A-Za-z_]\w*`)
	gotoRe  = regexp.MustCompile(`state <= (st_\w+)`)
	armRe   = regexp.MustCompile(`when (st_\w+) =>`)
	archRe  = regexp.MustCompile(`architecture \w+ of (\w+)`)
)

// mutants corrupts every non-comment line of an emitted design or
// testbench in seven ways: drop a signal or variable declaration, drop an
// end line, drop one ')', rename one use of a declared name, send the FSM
// to an undeclared state, relabel a case arm as the next arm's label, and
// rename the entity after "architecture ... of". A port map formal names
// a port of the instantiated entity, declared in another file, so it is
// not a use.
func mutants(text string) []mutant {
	lines := strings.SplitAfter(text, "\n")
	declared := map[string]bool{}
	var arms []string
	for _, l := range lines {
		if m := declRe.FindStringSubmatch(l); m != nil {
			declared[m[1]+m[2]] = true
		}
		if m := enumRe.FindStringSubmatch(l); m != nil {
			for _, lit := range strings.Split(m[1], ",") {
				declared[strings.TrimSpace(lit)] = true
			}
		}
		if m := armRe.FindStringSubmatch(l); m != nil {
			arms = append(arms, m[1])
		}
	}
	var out []mutant
	with := func(class string, i int, line string) {
		out = append(out, mutant{class, strings.Join(lines[:i], "") + line + strings.Join(lines[i+1:], "")})
	}
	arm := 0
	for i, l := range lines {
		code := strings.TrimSpace(l)
		if code == "" || strings.HasPrefix(code, "--") {
			continue
		}
		isDecl := declRe.MatchString(l) || enumRe.MatchString(l)
		if strings.HasPrefix(code, "signal ") || strings.HasPrefix(code, "variable ") {
			with("drop declaration", i, "")
		}
		if strings.HasPrefix(code, "end ") || strings.HasPrefix(code, "end;") {
			with("drop end", i, "")
		}
		for j := range l {
			if l[j] == ')' {
				with("drop paren", i, l[:j]+l[j+1:])
			}
		}
		if !isDecl {
			for _, m := range identRe.FindAllStringIndex(l, -1) {
				formal := strings.HasPrefix(strings.TrimSpace(l[m[1]:]), "=>") && !strings.HasPrefix(code, "when ")
				if declared[l[m[0]:m[1]]] && !formal {
					with("rename use", i, l[:m[1]]+"_x"+l[m[1]:])
				}
			}
		}
		for _, m := range gotoRe.FindAllStringSubmatchIndex(l, -1) {
			with("unknown state", i, l[:m[2]]+"st_nowhere"+l[m[3]:])
		}
		if m := armRe.FindStringSubmatchIndex(l); m != nil {
			with("relabel arm", i, l[:m[2]]+arms[(arm+1)%len(arms)]+l[m[3]:])
			arm++
		}
		if m := archRe.FindStringSubmatchIndex(l); m != nil {
			with("architecture entity", i, l[:m[3]]+"_x"+l[m[3]:])
		}
	}
	return out
}

func TestCheckSpecificErrors(t *testing.T) {
	cases := map[string]struct {
		mutate func(string) string
		want   string
	}{
		"stray end": {
			func(s string) string { return s + "\nend x;" },
			"no open construct",
		},
		"mismatched construct": {
			func(s string) string { return strings.Replace(s, "end process p;", "end case;", 1) },
			"closes open",
		},
		"undeclared": {
			func(s string) string { return strings.Replace(s, "s <= '1';", "s <= ghost;", 1) },
			"never declared",
		},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			err := Check(c.mutate(minimalVHDL))
			if err == nil {
				t.Fatal("corrupted VHDL accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestCheckCatchesCorruption is the reader's mutation test: every
// corruption of an emitted design or testbench outside its comments must
// be rejected by the parse alone, and SimulateDesign must fail with the
// same parse error without running a cycle.
func TestCheckCatchesCorruption(t *testing.T) {
	acc, err := Emit(design(t, accSrc))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		base   string
		mutate func(string) string
		want   string // a phrase the error must contain, if any
	}{
		{"unbalanced process", acc, func(s string) string { return strings.Replace(s, "end process", "", 1) }, ""},
		{"unbalanced case", acc, func(s string) string { return strings.Replace(s, "end case;", "", 1) }, ""},
		{"unbalanced if", acc, func(s string) string { return strings.Replace(s, "end if;", "", 1) }, ""},
		{"wrong architecture entity", acc, func(s string) string {
			return strings.Replace(s, "architecture rtl of", "architecture rtl of wrong_", 1)
		}, "architecture of"},
		{"undeclared signal", acc, func(s string) string {
			return strings.Replace(s, "state <= st_idle;", "state <= st_idle; mystery <= '1';", 1)
		}, "never declared"},
		{"unbalanced paren", acc, func(s string) string { return strings.Replace(s, "(31 downto 0)", "(31 downto 0", 1) }, ""},
		{"undeclared port", minimalVHDL, func(s string) string { return strings.Replace(s, "q   : out std_logic\n", "", 1) }, ""},
		{"empty", minimalVHDL, func(string) string { return "" }, "empty source"},
		{"unterminated string", minimalVHDL, func(s string) string {
			return strings.Replace(s, "s <= '1';", `s <= "1;`, 1)
		}, "unterminated string"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bad := c.mutate(c.base)
			if bad == c.base {
				t.Fatal("corruption had no effect")
			}
			err := Check(bad)
			if err == nil {
				t.Fatal("Check accepted corrupted VHDL")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}

	texts := map[string]string{}
	for name, k := range rtlKernels {
		_, _, d := kernelDesign(t, k.src)
		text, err := Emit(d)
		if err != nil {
			t.Fatal(err)
		}
		texts[name] = text
	}
	tb, err := EmitTestbench(design(t, accSrc))
	if err != nil {
		t.Fatal(err)
	}
	texts["testbench"] = tb
	for name, text := range texts {
		t.Run("mutants/"+name, func(t *testing.T) {
			if err := Check(text); err != nil {
				t.Fatalf("unmutated text rejected: %v", err)
			}
			classes := map[string]int{}
			for _, m := range mutants(text) {
				classes[m.class]++
				err := Check(m.text)
				if err == nil {
					t.Errorf("%s mutant accepted:\n%s", m.class, diffLine(text, m.text))
					continue
				}
				if _, serr := SimulateDesign(m.text, SimConfig{MaxCycles: 1}); serr == nil || serr.Error() != err.Error() {
					t.Errorf("%s mutant: SimulateDesign returned %v, not the parse error %v", m.class, serr, err)
				}
			}
			t.Logf("mutants by class: %v", classes)
		})
	}
}

// diffLine shows the first line where a mutant differs from its base.
func diffLine(base, mut string) string {
	b, m := strings.Split(base, "\n"), strings.Split(mut, "\n")
	for i := range b {
		if i >= len(m) || b[i] != m[i] {
			return fmt.Sprintf("line %d: %q", i+1, b[i])
		}
	}
	return "(no difference)"
}

// FuzzCheck holds the reader's safety property: neither Check nor
// SimulateDesign panics on any input, whether Check accepts it or not.
func FuzzCheck(f *testing.F) {
	d := design(f, accSrc)
	text, err := Emit(d)
	if err != nil {
		f.Fatal(err)
	}
	tb, err := EmitTestbench(d)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{text, tb, `x <= "abc`, "type state_t is (", "signal"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if Check(src) == nil {
			_, _ = SimulateDesign(src, SimConfig{MaxCycles: 64})
		}
	})
}
