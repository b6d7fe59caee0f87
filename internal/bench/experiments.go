package bench

import "io"

// Experiment is one experiment id of command rcmbench.
type Experiment struct {
	ID string
	// Run runs the experiment, rendering its tables to the configuration's
	// Out, and returns its results.
	Run func() (any, error)
	// CSV writes Run's results in machine-readable form; nil when the
	// experiment has none.
	CSV func(w io.Writer, res any) error
}

// Experiments returns the experiment table for one configuration, in
// `-exp all` order. Figs. 4 and 5 are two views of one strong-scaling
// sweep, which the table runs once.
func Experiments(cfg Config) []Experiment {
	var sweep []ScaleSeries
	scaling := func(render func(Config, []ScaleSeries)) func(Config) []ScaleSeries {
		return func(c Config) []ScaleSeries {
			if sweep == nil {
				sweep = RunScaling(c)
			}
			render(c, sweep)
			return sweep
		}
	}
	return []Experiment{
		{ID: "fig1", Run: func() (any, error) { return RunFig1(cfg) },
			CSV: func(w io.Writer, res any) error { return WriteFig1CSV(w, res.(*Fig1Result)) }},
		experiment(cfg, "fig3", RunFig3, nil),
		experiment(cfg, "table2", RunTable2, nil),
		experiment(cfg, "fig4", scaling(PrintFig4), WriteScalingCSV),
		experiment(cfg, "fig5", scaling(PrintFig5), WriteScalingCSV),
		experiment(cfg, "fig6", RunFig6, nil),
		experiment(cfg, "ablation-sort", RunAblationSort, nil),
		experiment(cfg, "ablation-direction", RunAblationDirection, nil),
		experiment(cfg, "ablation-heuristic", RunAblationHeuristic, nil),
		experiment(cfg, "ablation-semiring", RunAblationSemiring, nil),
		experiment(cfg, "ablation-hybrid", RunAblationHybrid, nil),
		experiment(cfg, "ablation-format", RunAblationLocalFormat, nil),
		experiment(cfg, "quality", RunQuality, nil),
		experiment(cfg, "sizesense", RunSizeSensitivity, nil),
		experiment(cfg, "ablation-dcsc", RunAblationDCSC, nil),
		experiment(cfg, "ablation-components", RunAblationComponents, nil),
		{ID: "ablation-ordering", Run: func() (any, error) { return RunAblationOrdering(cfg) }},
		experiment(cfg, "fleet", RunFleet, WriteFleetCSV),
		{ID: "spy", Run: func() (any, error) { return nil, RunSpy(cfg) }},
	}
}

// experiment binds a typed runner and its CSV writer (nil for none) to a
// table row.
func experiment[R any](cfg Config, id string, run func(Config) R, csv func(io.Writer, R) error) Experiment {
	e := Experiment{ID: id, Run: func() (any, error) { return run(cfg), nil }}
	if csv != nil {
		e.CSV = func(w io.Writer, res any) error { return csv(w, res.(R)) }
	}
	return e
}
