package experiment

import "alex/internal/plot"

// QualityChart renders a run as the paper's standard quality figure:
// precision, recall and F-measure per episode, with the relaxed-convergence
// marker as a vertical rule.
func (r *Result) QualityChart(title string) *plot.Chart {
	n := len(r.Points) + 1
	p := make([]float64, n)
	rec := make([]float64, n)
	f := make([]float64, n)
	p[0], rec[0], f[0] = r.Initial.Precision, r.Initial.Recall, r.Initial.FMeasure
	for i, pt := range r.Points {
		p[i+1], rec[i+1], f[i+1] = pt.Quality.Precision, pt.Quality.Recall, pt.Quality.FMeasure
	}
	c := &plot.Chart{
		Title:  title,
		XLabel: "Episode",
		YLabel: "Quality",
		YMin:   0, YMax: 1,
		Series: []plot.Series{
			{Name: "Precision", Y: p},
			{Name: "Recall", Y: rec},
			{Name: "F-Measure", Y: f},
		},
	}
	if r.RelaxedAt > 0 {
		c.Markers = map[int]string{r.RelaxedAt: "<5% change"}
	}
	return c
}

func fSeries(r *Result) []float64 {
	out := []float64{r.Initial.FMeasure}
	for _, p := range r.Points {
		out = append(out, p.Quality.FMeasure)
	}
	return out
}

func negSeries(r *Result) []float64 {
	var out []float64
	for _, p := range r.Points {
		out = append(out, p.NegShare)
	}
	return out
}

// fChart is an empty F-measure-per-episode chart for a parameter sweep.
func fChart(title string) *plot.Chart {
	return &plot.Chart{Title: title, XLabel: "Episode", YLabel: "F", YMin: 0, YMax: 1}
}

func compareChart(title, nameA string, a []float64, nameB string, b []float64) *plot.Chart {
	return &plot.Chart{
		Title:  title,
		XLabel: "Episode",
		YLabel: "Value",
		YMin:   0, YMax: 1,
		Series: []plot.Series{{Name: nameA, Y: a}, {Name: nameB, Y: b}},
	}
}
