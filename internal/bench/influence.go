package bench

import (
	"math"

	"c2nn/internal/circuits"
	"c2nn/internal/lutmap"
	"c2nn/internal/poly"
)

// runInfluence checks the §II-B hypothesis: "the more complex and
// sensitive the DC is, the less sparse the polynomial will be". For
// every mapped LUT it relates average sensitivity (total influence per
// input, O'Donnell 2014) to polynomial density (non-zero coefficients /
// 2^k) and reports the means and the Pearson correlation across LUTs;
// §II-B predicts they rise together (positive r).
func runInfluence(e *Env, out *emitter) error {
	return e.each(func(c circuits.Circuit, l int) error {
		nl, err := c.Elaborate()
		if err != nil {
			return err
		}
		m, err := lutmap.MapNetlist(nl, lutmap.Options{K: l, Trace: e.Trace})
		if err != nil {
			return err
		}
		var infl, dens []float64
		maxDegree := 0
		for i := range m.Graph.LUTs {
			tab := m.Graph.LUTs[i].Table
			if tab.NumVars == 0 {
				continue
			}
			p := poly.FromTable(tab)
			infl = append(infl, tab.TotalInfluence()/float64(tab.NumVars))
			dens = append(dens, float64(p.NumTerms())/float64(tab.Size()))
			maxDegree = max(maxDegree, p.Degree())
		}
		pt := out.at(c.Name, l)
		pt.count("luts", int64(len(m.Graph.LUTs)))
		pt.put("mean_influence", mean(infl), "ratio")
		pt.put("mean_density", mean(dens), "ratio")
		pt.put("correlation", pearson(infl, dens), "r")
		pt.count("max_degree", int64(maxDegree))
		e.logf("[influence] %-18s L=%d luts=%-6d sens=%.3f density=%.3f r=%.3f",
			c.Name, l, len(m.Graph.LUTs), mean(infl), mean(dens), pearson(infl, dens))
		return nil
	})
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func pearson(xs, ys []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mx, my := mean(xs), mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
