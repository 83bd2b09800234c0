package experiments

import (
	"fmt"

	"repro/internal/report"
	"repro/internal/sweep"
)

// PaperTableI holds the paper's published Table I values for side-by-side
// comparison in the rendered output.
var PaperTableI = map[string]struct {
	Method string
	Corr   float64
}{
	"VM CPU": {"M5P (M=4)", 0.854},
	"VM MEM": {"Linear Reg.", 0.994},
	"VM IN":  {"M5P (M=2)", 0.804},
	"VM OUT": {"M5P (M=2)", 0.777},
	"PM CPU": {"M5P (M=4)", 0.909},
	"VM RT":  {"M5P (M=4)", 0.865},
	"VM SLA": {"K-NN (K=4)", 0.985},
}

// TableI reproduces the paper's Table I: per-predictor learning method,
// correlation, mean absolute error, error standard deviation, train/val
// sizes and target ranges, measured on data harvested from the simulated
// fleet with a 66/34 split.
func TableI(seed uint64) (*Result, error) {
	b, err := sweep.TrainedBundle(seed)
	if err != nil {
		return nil, err
	}
	t := report.Table{
		Caption: "Table I — learning details for each predicted element",
		Headers: []string{"element", "method", "corr", "corr(paper)", "MAE", "err-sd", "train/val", "range"},
	}
	res := &Result{Name: "TableI", Metrics: map[string]float64{}}
	for _, rep := range b.Reports {
		paper := PaperTableI[rep.Name]
		t.AddRow(
			rep.Name,
			rep.Method,
			fmt.Sprintf("%.3f", rep.Correlation),
			fmt.Sprintf("%.3f", paper.Corr),
			fmt.Sprintf("%.3f%s", rep.MAE, rep.Unit),
			fmt.Sprintf("%.3f%s", rep.ErrStdDev, rep.Unit),
			fmt.Sprintf("%d/%d", rep.NTrain, rep.NTest),
			fmt.Sprintf("[%.3g, %.3g]", rep.RangeLo, rep.RangeHi),
		)
		res.Metrics["corr:"+rep.Name] = rep.Correlation
		res.Metrics["mae:"+rep.Name] = rep.MAE
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"targets are harvested from the simulated fleet's monitors, so absolute errors differ from the paper; the method/quality ordering is the reproduced claim")
	return res, nil
}
