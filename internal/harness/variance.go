package harness

import (
	"fmt"

	"plp/internal/engine"
	"plp/internal/stats"
	"plp/internal/trace"
)

// varianceSeeds is the number of independent trace seeds per benchmark.
const varianceSeeds = 5

// Variance quantifies how sensitive the headline result (coalescing
// normalized to secure_WB) is to the synthetic traces' random seeds:
// each benchmark runs with five independent seeds and the spread is
// reported. Narrow bands mean the conclusions follow from the
// calibrated rates, not from any particular random stream — the
// reproduction's analogue of multiple simulation runs.
func Variance(o Options) *Experiment {
	r := newRunner(o)
	profs := r.o.profiles()
	type row struct{ mean, min, max float64 }
	rows := make([]row, len(profs))
	r.parallel(profs, func(i int, p trace.Profile) {
		var vals []float64
		for s := 0; s < varianceSeeds; s++ {
			variant := p
			variant.Seed = p.Seed + uint64(s)*1009
			base := r.run(r.cfg(engine.SchemeSecureWB), variant)
			res := r.run(r.cfg(engine.SchemeCoalescing), variant)
			vals = append(vals, float64(res.Cycles)/float64(base.Cycles))
		}
		rw := row{mean: stats.Mean(vals), min: vals[0], max: vals[0]}
		for _, v := range vals {
			if v < rw.min {
				rw.min = v
			}
			if v > rw.max {
				rw.max = v
			}
		}
		rows[i] = rw
	})
	tab := stats.NewTable("benchmark", "mean", "min", "max", "spread%")
	var means []float64
	worst := 0.0
	for i, p := range profs {
		rw := rows[i]
		means = append(means, rw.mean)
		spread := 0.0
		if rw.mean > 0 {
			spread = (rw.max - rw.min) / rw.mean * 100
		}
		if spread > worst {
			worst = spread
		}
		tab.AddRow(p.Name,
			fmt.Sprintf("%.3f", rw.mean),
			fmt.Sprintf("%.3f", rw.min),
			fmt.Sprintf("%.3f", rw.max),
			fmt.Sprintf("%.1f", spread))
	}
	return &Experiment{
		ID:          "Variance",
		Description: fmt.Sprintf("coalescing normalized time across %d trace seeds per benchmark", varianceSeeds),
		Table:       tab,
		Summary: map[string]float64{
			"gmean of means":   stats.GeoMean(means),
			"worst spread (%)": worst,
		},
	}
}
