package vhdl

import (
	"fmt"
	"strings"

	"binpart/internal/synth"
)

// EmitTestbench renders a simulation testbench for a design: it
// instantiates the entity, generates the clock at the design's estimated
// period, applies reset, pulses start, and waits for done. This mirrors
// the RTL-verification step of a conventional flow, for an external
// simulator. In this repository the structural checker validates the
// testbench, and SimulateDesign runs the same reset/start/done protocol
// on the design itself against the IR interpreter's results.
func EmitTestbench(d *synth.Design) (string, error) {
	name := sanitize(d.Name)
	half := d.ClockNs / 2
	if half <= 0 {
		half = 5
	}
	var b strings.Builder
	fmt.Fprintf(&b, "-- Testbench for %s\n", name)
	b.WriteString("library ieee;\n")
	b.WriteString("use ieee.std_logic_1164.all;\n")
	b.WriteString("use ieee.numeric_std.all;\n\n")
	fmt.Fprintf(&b, "entity %s_tb is\n", name)
	fmt.Fprintf(&b, "end %s_tb;\n\n", name)
	fmt.Fprintf(&b, "architecture sim of %s_tb is\n", name)
	b.WriteString("  signal clk        : std_logic;\n")
	b.WriteString("  signal rst        : std_logic;\n")
	b.WriteString("  signal start      : std_logic;\n")
	b.WriteString("  signal done       : std_logic;\n")
	b.WriteString("  signal arg0       : std_logic_vector(31 downto 0);\n")
	b.WriteString("  signal arg1       : std_logic_vector(31 downto 0);\n")
	b.WriteString("  signal result     : std_logic_vector(31 downto 0);\n")
	b.WriteString("  signal mem0_addr  : std_logic_vector(31 downto 0);\n")
	b.WriteString("  signal mem0_wdata : std_logic_vector(31 downto 0);\n")
	b.WriteString("  signal mem0_rdata : std_logic_vector(31 downto 0);\n")
	b.WriteString("  signal mem0_we    : std_logic;\n")
	b.WriteString("  signal mem0_size  : std_logic_vector(1 downto 0);\n")
	b.WriteString("  signal mem1_addr  : std_logic_vector(31 downto 0);\n")
	b.WriteString("  signal mem1_rdata : std_logic_vector(31 downto 0);\n")
	b.WriteString("  signal mem1_size  : std_logic_vector(1 downto 0);\n")
	b.WriteString("  signal mem1_sx    : std_logic;\n")
	b.WriteString("begin\n")
	fmt.Fprintf(&b, "  dut : entity work.%s\n", name)
	b.WriteString("    port map (\n")
	b.WriteString("      clk => clk, rst => rst, start => start, done => done,\n")
	b.WriteString("      arg0 => arg0, arg1 => arg1, result => result,\n")
	b.WriteString("      mem0_addr => mem0_addr, mem0_wdata => mem0_wdata,\n")
	b.WriteString("      mem0_rdata => mem0_rdata, mem0_we => mem0_we,\n")
	b.WriteString("      mem0_size => mem0_size, mem1_addr => mem1_addr,\n")
	b.WriteString("      mem1_rdata => mem1_rdata, mem1_size => mem1_size,\n")
	b.WriteString("      mem1_sx => mem1_sx\n")
	b.WriteString("    );\n\n")
	b.WriteString("  clocking : process\n")
	b.WriteString("  begin\n")
	fmt.Fprintf(&b, "    clk <= '0'; wait for %.2f ns;\n", half)
	fmt.Fprintf(&b, "    clk <= '1'; wait for %.2f ns;\n", half)
	b.WriteString("  end process clocking;\n\n")
	b.WriteString("  stimulus : process\n")
	b.WriteString("  begin\n")
	b.WriteString("    rst <= '1'; start <= '0';\n")
	b.WriteString("    arg0 <= std_logic_vector(to_signed(0, 32));\n")
	b.WriteString("    arg1 <= std_logic_vector(to_signed(0, 32));\n")
	fmt.Fprintf(&b, "    wait for %.2f ns;\n", 4*half)
	b.WriteString("    rst <= '0';\n")
	fmt.Fprintf(&b, "    wait for %.2f ns;\n", 2*half)
	b.WriteString("    start <= '1';\n")
	fmt.Fprintf(&b, "    wait for %.2f ns;\n", 2*half)
	b.WriteString("    start <= '0';\n")
	b.WriteString("    wait until done = '1';\n")
	b.WriteString("    report \"design finished\";\n")
	b.WriteString("    wait;\n")
	b.WriteString("  end process stimulus;\n")
	b.WriteString("end sim;\n")
	return b.String(), nil
}
