package shmd_test

// The benchmark harness: one benchmark per paper figure/table, plus
// micro-benchmarks of the hot paths. Figure benchmarks execute the
// same experiment code as cmd/experiments and report their headline
// numbers as benchmark metrics, so `go test -bench=.` regenerates the
// whole evaluation.
//
// By default the benchmarks run at the quick scale so the suite
// finishes in minutes; set SHMD_BENCH_SCALE=full for the paper-sized
// corpus (3000 malware + 600 benign, 50-repeat sweeps).

import (
	"os"
	"sync"
	"testing"

	"shmd/internal/core"
	"shmd/internal/dataset"
	"shmd/internal/experiments"
	"shmd/internal/faults"
	"shmd/internal/fxp"
	"shmd/internal/hmd"
	"shmd/internal/rng"
	"shmd/internal/trace"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
	benchErr  error
)

func benchScale() experiments.Scale {
	if os.Getenv("SHMD_BENCH_SCALE") == "full" {
		return experiments.Full(1)
	}
	return experiments.Quick(1)
}

func env(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		benchEnv, benchErr = experiments.NewEnv(benchScale(), 0)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnv
}

func BenchmarkFig1BitDistribution(b *testing.B) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Fig1(scale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ErrorRate, "error-rate")
		b.ReportMetric(res.ApEn, "ApEn")
	}
}

func BenchmarkFig2aAccuracySweep(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		points, _, err := experiments.Fig2a(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(points[1].Accuracy.Mean, "acc@er=0.1")
		b.ReportMetric(points[len(points)-1].Accuracy.Mean, "acc@er=1.0")
	}
}

func BenchmarkFig2bConfidence(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		results, _, err := experiments.Fig2b(e)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != 3 {
			b.Fatal("unexpected result count")
		}
	}
}

func BenchmarkFig3ReverseEngineering(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig3(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Baseline, "MLP-baseline-eff")
		b.ReportMetric(rows[0].Stochastic, "MLP-stochastic-eff")
	}
}

func BenchmarkFig4Transferability(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig4(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[1].Baseline, "MLP-baseline-transfer")
		b.ReportMetric(rows[1].Stochastic, "MLP-stochastic-transfer")
	}
}

func BenchmarkFig5RHMDEvasion(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		rows, _, _, err := experiments.Fig5And6(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[3].EvasiveDetected, "RHMD-3F2P-detected")
		b.ReportMetric(rows[4].EvasiveDetected, "stochastic-detected")
	}
}

func BenchmarkFig6RHMDAccuracy(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		rows, _, _, err := experiments.Fig5And6(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[3].Accuracy, "RHMD-3F2P-acc")
		b.ReportMetric(rows[4].Accuracy, "stochastic-acc")
	}
}

func BenchmarkFig7PowerSavings(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		points, _, err := experiments.Fig7(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(points[len(points)-1].SavingsVsRHMD, "savings-vs-RHMD@0.68V")
	}
}

func BenchmarkFig8Tradeoff(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		points, _, err := experiments.Fig8(e)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.ErrorRate == experiments.OperatingErrorRate {
				b.ReportMetric(p.Accuracy, "acc@er=0.1")
				b.ReportMetric(p.TransferRobust, "transfer-robust@er=0.1")
			}
		}
	}
}

func BenchmarkTabInferenceTime(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.TabLatency(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].Time.Nanoseconds()), "stochastic-ns")
		b.ReportMetric(float64(rows[1].Time.Nanoseconds()), "rhmd2f-ns")
	}
}

func BenchmarkTabMemoryFootprint(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.TabMemory(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].StorageBytes), "model-bytes")
	}
}

func BenchmarkTabRNGOverhead(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.TabRNG(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].TimeFactor, "TRNG-time-x")
		b.ReportMetric(rows[0].EnergyFactor, "TRNG-energy-x")
		b.ReportMetric(rows[1].TimeFactor, "PRNG-time-x")
		b.ReportMetric(rows[1].EnergyFactor, "PRNG-energy-x")
	}
}

// --- ablation benches (DESIGN.md §5) ---

func BenchmarkAblationFaultDistribution(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.AblationFaultDistribution(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Accuracy, "fig1-shape-acc@0.1")
		b.ReportMetric(rows[2].Accuracy, "uniform-acc@0.1")
	}
}

func BenchmarkAblationDeterministicAC(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.AblationDeterministicAC(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].ScoreStd, "stochastic-score-std")
		b.ReportMetric(rows[1].ScoreStd, "deterministic-score-std")
	}
}

func BenchmarkAblationPersistence(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.AblationPersistence(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Detected, "detected@1run")
		b.ReportMetric(rows[3].Detected, "detected@10runs")
	}
}

func BenchmarkAblationEvasionMargin(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.AblationEvasionMargin(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[1].StochasticCaught, "caught@margin0.05")
	}
}

func BenchmarkAblationAdaptiveAttacker(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.AblationAdaptiveAttacker(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].Caught, "caught-vs-adaptive")
	}
}

// --- micro-benchmarks of the deployment hot paths ---

// BenchmarkDetectionNominal measures one program-level detection on the
// exact (nominal-voltage) multiplier.
func BenchmarkDetectionNominal(b *testing.B) {
	e := env(b)
	p := e.Test()[0]
	det := e.Base.WithFreshBuffers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.DetectProgram(p.Windows)
	}
}

// BenchmarkDetectionUndervolted measures one program-level detection
// through the fault injector at the operating point.
func BenchmarkDetectionUndervolted(b *testing.B) {
	e := env(b)
	p := e.Test()[0]
	s, err := e.Stochastic(experiments.OperatingErrorRate, 0xBE7C)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.DetectProgram(p.Windows)
	}
}

// BenchmarkInjectorMul measures the per-multiplication cost of the
// fault injector against the exact unit.
func BenchmarkInjectorMul(b *testing.B) {
	inj, err := faults.NewInjector(0.1, nil, rng.NewRand(1))
	if err != nil {
		b.Fatal(err)
	}
	var sink fxp.Product
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += inj.Mul(fxp.Value(i), 12345)
	}
	_ = sink
}

// BenchmarkExactMul is the injector's baseline.
func BenchmarkExactMul(b *testing.B) {
	var u fxp.Exact
	var sink fxp.Product
	for i := 0; i < b.N; i++ {
		sink += u.Mul(fxp.Value(i), 12345)
	}
	_ = sink
}

// benchInput builds a deterministic input vector for the deployed
// network.
func benchInput(n int) []float64 {
	in := make([]float64, n)
	r := rng.NewRand(0xB13)
	for i := range in {
		in[i] = r.Float64()
	}
	return in
}

// BenchmarkInferenceExactFused measures one exact forward pass: a
// one-lane batched pass through the exact MAC kernels.
func BenchmarkInferenceExactFused(b *testing.B) {
	e := env(b)
	fn := e.Base.Fixed().Clone()
	in := benchInput(fn.NumInputs())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn.Run(fxp.Exact{}, in)
	}
	b.ReportMetric(float64(fn.NumMuls())*float64(b.N)/b.Elapsed().Seconds(), "muls/s")
}

// BenchmarkInferenceFaultySkipAhead measures one undervolted forward
// pass at the operating point through the geometric skip-ahead
// injector: one lane, its faults presampled for the whole pass and the
// exact MAC kernel between them.
func BenchmarkInferenceFaultySkipAhead(b *testing.B) {
	e := env(b)
	fn := e.Base.Fixed().Clone()
	in := benchInput(fn.NumInputs())
	inj, err := faults.NewInjector(experiments.OperatingErrorRate, nil, rng.NewRand(2))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn.Run(inj, in)
	}
	b.ReportMetric(float64(fn.NumMuls())*float64(b.N)/b.Elapsed().Seconds(), "muls/s")
}

// BenchmarkEvaluateSharded measures a full stochastic evaluation over
// the test corpus through the program-sharded parallel path.
func BenchmarkEvaluateSharded(b *testing.B) {
	e := env(b)
	s, err := e.Stochastic(experiments.OperatingErrorRate, 0xE7A1)
	if err != nil {
		b.Fatal(err)
	}
	test := e.Test()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hmd.Evaluate(s, test)
	}
}

// BenchmarkEvaluateSerial is the same evaluation pinned to one worker.
func BenchmarkEvaluateSerial(b *testing.B) {
	e := env(b)
	s, err := e.Stochastic(experiments.OperatingErrorRate, 0xE7A1)
	if err != nil {
		b.Fatal(err)
	}
	test := e.Test()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set, err := hmd.NewSet(s.Base(), test)
		if err != nil {
			b.Fatal(err)
		}
		hmd.EvaluateSet([]hmd.SetDetector{s}, set, hmd.EvalOptions{Workers: 1})
	}
}

// BenchmarkTraceGeneration measures synthesizing and tracing one
// program.
func BenchmarkTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, err := trace.NewProgram(trace.Trojan, i, 1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Trace(trace.DefaultWindows, trace.DefaultWindowSize); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCorpusGeneration measures building the quick corpus.
func BenchmarkCorpusGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := dataset.Generate(dataset.QuickConfig(uint64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVoltageCalibration measures the error-rate calibration loop.
func BenchmarkVoltageCalibration(b *testing.B) {
	e := env(b)
	s, err := e.Stochastic(0.1, 0xCA1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.SetErrorRate(0.05 + float64(i%10)*0.01); err != nil {
			b.Fatal(err)
		}
	}
	_ = core.Owner
}
