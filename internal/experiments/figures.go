package experiments

// Figure is one figure cmd/benchrunner regenerates: the -fig name that
// selects it (the four ablations share "ablations"), the title of the
// section it prints under, whether its result is also written as
// BENCH_<Name>.json, and Run, which computes it and renders its text.
type Figure struct {
	Name, Title string
	JSON        bool
	Run         func() (text string, result any, err error)
}

// figure adapts a runner and the formatter of its result to Figure.Run.
func figure[T any](run func() (T, error), format func(T) string) func() (string, any, error) {
	return func() (string, any, error) {
		res, err := run()
		if err != nil {
			return "", nil, err
		}
		return format(res), res, nil
	}
}

func same(s string) string { return s }

// Figures lists every figure in the order benchrunner -fig all prints them.
var Figures = []Figure{
	{"2", "Figure 2: cost vector database", false, figure(func() (string, error) { return Figure2(), nil }, same)},
	{"3", "Figure 3: loss-less summarizations", false, figure(Figure3, same)},
	{"4", "Figure 4: lossy summarizations (droppability analysis)", false, figure(Figure4, same)},
	{"5", "Figure 5: executing remote calls with caching and/or invariants", false, figure(Figure5, FormatFigure5)},
	{"6", "Figure 6: the utility of the DCSM (actual vs lossless vs lossy predictions)", false, figure(Figure6, FormatFigure6)},
	{"plan", "§8 plan choice: does the DCSM pick the faster rewriting?", false, figure(PlanChoice, FormatPlanChoice)},
	{"ablations", "Ablation: summarization granularity", false, figure(AblationSummarization, FormatSummarization)},
	{"ablations", "Ablation: recency-weighted statistics under network drift", false, figure(AblationRecency, FormatRecency)},
	{"ablations", "Ablation: cache eviction policy", false, figure(AblationCachePolicy, FormatCachePolicy)},
	{"ablations", "Ablation: parallel vs serial completion of partial answers", false, figure(AblationParallelPartial, FormatParallelPartial)},
	{"optquality", "Optimizer quality: chosen vs best vs worst plan over random queries", false,
		figure(func() ([]OptQualityRow, error) { return OptimizerQuality(10) }, FormatOptimizerQuality)},
	{"hitrate", "Cache and invariant hit rates over a skewed call stream", false, figure(HitRate, FormatHitRate)},
	{"parallel", "Parallel operator pipeline: speedup vs Parallelism", true, figure(ParallelSpeedup, FormatParallel)},
	{"admission", "Inter-query admission control: fairness under concurrent sessions", true, figure(AdmissionFairness, FormatAdmission)},
	{"calibration", "DCSM calibration: estimate q-error as statistics warm", true, figure(CalibrationWarmup, FormatCalibration)},
	{"availability", "Query result caching under source unavailability", false, figure(Availability, FormatAvailability)},
	{"memo", "Rule-level memo cache: differential harness and repeat-query latency", true, figure(RunDifferential, FormatDifferential)},
	{"adaptive", "Adaptive planning: calibration-inflated costing vs a calibration-blind optimizer", true, figure(AdaptivePlanning, FormatAdaptive)},
	{"invindex", "Invariant discrimination index: probe latency scaling and a differential against the oracle", true, figure(InvindexScaling, FormatInvindex)},
}
