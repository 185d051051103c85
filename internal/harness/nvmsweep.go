package harness

import (
	"plp/internal/engine"
	"plp/internal/nvm"
	"plp/internal/stats"
	"plp/internal/trace"
)

// nvmPoint is one memory technology in the sensitivity sweep.
type nvmPoint struct {
	name    string
	readNS  float64
	writeNS float64
}

// nvmPoints spans DRAM-like to slow-PCM-like technologies around the
// paper's Table III device.
var nvmPoints = []nvmPoint{
	{"dram-like", 15, 15},
	{"optane-like", 45, 100},
	{"pcm (paper)", 72.5, 155},
	{"slow-pcm", 150, 500},
}

// NVMSweep is an extension experiment: how the headline schemes react
// to the NVM technology's latency. The paper fixes PCM (Table III);
// this sweep shows that the PLP conclusions are technology-robust —
// the BMT-update serialization (MAC latency) dominates sp regardless
// of the memory device, while the epoch schemes track the baseline.
func NVMSweep(o Options) *Experiment {
	r := newRunner(o)
	profs := r.o.profiles()
	rows := make([][]float64, len(profs))
	r.parallel(profs, func(i int, p trace.Profile) {
		row := make([]float64, 0, len(nvmPoints)*2)
		for _, pt := range nvmPoints {
			cfg := func(s engine.Scheme) engine.Config {
				c := r.cfg(s)
				c.NVM = nvm.Config{ReadNS: pt.readNS, WriteNS: pt.writeNS}
				return c
			}
			base := r.run(cfg(engine.SchemeSecureWB), p)
			sp := r.run(cfg(engine.SchemeSP), p)
			co := r.run(cfg(engine.SchemeCoalescing), p)
			row = append(row,
				float64(sp.Cycles)/float64(base.Cycles),
				float64(co.Cycles)/float64(base.Cycles))
		}
		rows[i] = row
	})
	header := []string{"benchmark"}
	for _, pt := range nvmPoints {
		header = append(header, "sp@"+pt.name, "coal@"+pt.name)
	}
	tab := stats.NewTable(header...)
	for i, p := range profs {
		tab.AddFloats(p.Name, "%.2f", rows[i]...)
	}
	gms := columnGmeans(rows)
	tab.AddFloats("gmean", "%.2f", gms...)
	summary := map[string]float64{}
	for c, pt := range nvmPoints {
		summary["gmean sp "+pt.name] = gms[c*2]
		summary["gmean coalescing "+pt.name] = gms[c*2+1]
	}
	return &Experiment{
		ID:          "NVM",
		Description: "extension: sp and coalescing vs NVM technology latency (normalized to same-technology secure_WB)",
		Table:       tab,
		Summary:     summary,
	}
}

// nvmPointNames lists the sweep's technology labels (for tests).
func nvmPointNames() []string {
	out := make([]string, len(nvmPoints))
	for i, pt := range nvmPoints {
		out[i] = pt.name
	}
	return out
}
