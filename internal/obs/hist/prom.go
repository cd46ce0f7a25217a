package hist

import (
	"fmt"
	"io"
	"strings"
)

// Prom writes the Prometheus text exposition format (version 0.0.4):
// one `# TYPE` header per metric family, then one sample per line.
// Callers group samples of one family together, as the format requires;
// Prom tracks which families it has typed so interleaved helpers stay
// legal.
type Prom struct {
	w     io.Writer
	typed map[string]string
}

// NewProm starts an exposition onto w.
func NewProm(w io.Writer) *Prom {
	return &Prom{w: w, typed: map[string]string{}}
}

// header emits the TYPE line once per family.
func (p *Prom) header(name, typ string) {
	if p.typed[name] == "" {
		fmt.Fprintf(p.w, "# TYPE %s %s\n", name, typ)
		p.typed[name] = typ
	}
}

// sample writes one metric line. labels is the pre-rendered inner label
// list (`stage="sim",outcome="hit"`) or "".
func (p *Prom) sample(name, labels string, v float64) {
	if labels == "" {
		fmt.Fprintf(p.w, "%s %g\n", name, v)
		return
	}
	fmt.Fprintf(p.w, "%s{%s} %g\n", name, labels, v)
}

// Counter emits one counter sample.
func (p *Prom) Counter(name, labels string, v float64) {
	p.header(name, "counter")
	p.sample(name, labels, v)
}

// Gauge emits one gauge sample.
func (p *Prom) Gauge(name, labels string, v float64) {
	p.header(name, "gauge")
	p.sample(name, labels, v)
}

// Quantiles is the set every latency summary exposes.
var Quantiles = []float64{0.5, 0.9, 0.95, 0.99}

// Summary emits a latency snapshot as a Prometheus summary in seconds:
// one sample per quantile in Quantiles plus the _sum and _count series.
// Empty snapshots are skipped entirely, keeping scrape output compact.
func (p *Prom) Summary(name, labels string, s Snapshot) {
	if s.Empty() {
		return
	}
	p.header(name, "summary")
	for _, q := range Quantiles {
		ql := fmt.Sprintf("quantile=%q", fmt.Sprintf("%g", q))
		if labels != "" {
			ql = labels + "," + ql
		}
		p.sample(name, ql, s.QuantileSeconds(q))
	}
	p.sample(name+"_sum", labels, float64(s.SumNs)/1e9)
	p.sample(name+"_count", labels, float64(s.Count))
}

// labelEscaper escapes label values per the exposition format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Label renders one escaped key="value" pair for the labels arguments.
func Label(key, value string) string {
	return key + `="` + labelEscaper.Replace(value) + `"`
}

// Labels joins rendered pairs.
func Labels(pairs ...string) string { return strings.Join(pairs, ",") }
