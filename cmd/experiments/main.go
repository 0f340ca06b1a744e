// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -scale quick|full [-fig all|1|2a|2b|3|4|5|6|7|8|lat|mem|rng]
//	            [-rotation 0|1|2] [-seed N]
//
// Every figure prints as an aligned text table with the same rows/series
// the paper reports.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"shmd/internal/experiments"
)

func main() {
	scaleName := flag.String("scale", "quick", "experiment scale (quick|full)")
	fig := flag.String("fig", "all", "comma-separated figures: 1,2a,2b,3,4,5,6,7,8,lat,mem,rng,ablations or all")
	rotation := flag.Int("rotation", 0, "cross-validation rotation (0..2)")
	seed := flag.Uint64("seed", 1, "root seed")
	repeats := flag.Int("repeats", 0, "override sweep repeats (0 = scale default)")
	targets := flag.Int("targets", 0, "override evasion target count (0 = scale default)")
	proxyEpochs := flag.Int("proxyepochs", 0, "override proxy training epochs (0 = scale default)")
	outDir := flag.String("out", "", "also write each table as CSV into this directory")
	flag.Parse()

	var scale experiments.Scale
	switch *scaleName {
	case "quick":
		scale = experiments.Quick(*seed)
	case "full":
		scale = experiments.Full(*seed)
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown scale %q\n", *scaleName)
		os.Exit(2)
	}
	if *repeats > 0 {
		scale.SweepRepeats = *repeats
		scale.ConfRepeats = *repeats
	}
	if *targets > 0 {
		scale.EvadeTargets = *targets
	}
	if *proxyEpochs > 0 {
		scale.ProxyEpochs = *proxyEpochs
	}

	want := map[string]bool{}
	for _, f := range strings.Split(*fig, ",") {
		want[strings.TrimSpace(f)] = true
	}
	all := want["all"]
	selected := func(name string) bool { return all || want[name] }

	if err := run(scale, *rotation, *outDir, selected); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(scale experiments.Scale, rotation int, outDir string, selected func(string) bool) error {
	fmt.Printf("scale=%s rotation=%d seed=%d\n", scale.Name, rotation, scale.Seed)

	// Fig 1 and Fig 7 need no trained detector; everything else shares
	// an Env.
	var env *experiments.Env
	needEnv := false
	for _, f := range []string{"2a", "2b", "3", "4", "5", "6", "7", "8", "lat", "mem", "rng", "ablations"} {
		if selected(f) {
			needEnv = true
		}
	}
	if needEnv {
		start := time.Now()
		fmt.Println("generating corpus and training baseline HMD...")
		var err error
		env, err = experiments.NewEnv(scale, rotation)
		if err != nil {
			return err
		}
		fmt.Printf("ready in %v\n\n", time.Since(start).Round(time.Millisecond))
	}

	emit := func(t *experiments.Table) error {
		fmt.Println(t)
		if outDir == "" {
			return nil
		}
		path, err := t.SaveCSV(outDir)
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
		return nil
	}

	show := func(name string, f func() (*experiments.Table, error)) error {
		if !selected(name) {
			return nil
		}
		start := time.Now()
		t, err := f()
		if err != nil {
			return fmt.Errorf("fig %s: %w", name, err)
		}
		if err := emit(t); err != nil {
			return err
		}
		fmt.Printf("(%v)\n\n", time.Since(start).Round(time.Millisecond))
		return nil
	}

	steps := []struct {
		name string
		fn   func() (*experiments.Table, error)
	}{
		{"1", func() (*experiments.Table, error) { _, t, err := experiments.Fig1(scale); return t, err }},
		{"2a", func() (*experiments.Table, error) { _, t, err := experiments.Fig2a(env); return t, err }},
		{"2b", func() (*experiments.Table, error) { _, t, err := experiments.Fig2b(env); return t, err }},
		{"3", func() (*experiments.Table, error) { _, t, err := experiments.Fig3(env); return t, err }},
		{"4", func() (*experiments.Table, error) { _, t, err := experiments.Fig4(env); return t, err }},
		{"7", func() (*experiments.Table, error) { _, t, err := experiments.Fig7(env); return t, err }},
		{"8", func() (*experiments.Table, error) { _, t, err := experiments.Fig8(env); return t, err }},
		{"lat", func() (*experiments.Table, error) { _, t, err := experiments.TabLatency(env); return t, err }},
		{"mem", func() (*experiments.Table, error) { _, t, err := experiments.TabMemory(env); return t, err }},
		{"rng", func() (*experiments.Table, error) { _, t, err := experiments.TabRNG(env); return t, err }},
	}
	for _, s := range steps {
		if err := show(s.name, s.fn); err != nil {
			return err
		}
	}

	// The design-choice ablations (DESIGN.md §5).
	if selected("ablations") {
		ablations := []struct {
			name string
			fn   func() (*experiments.Table, error)
		}{
			{"fault-distribution", func() (*experiments.Table, error) {
				_, t, err := experiments.AblationFaultDistribution(env)
				return t, err
			}},
			{"deterministic-ac", func() (*experiments.Table, error) {
				_, t, err := experiments.AblationDeterministicAC(env)
				return t, err
			}},
			{"persistence", func() (*experiments.Table, error) {
				_, t, err := experiments.AblationPersistence(env)
				return t, err
			}},
			{"evasion-margin", func() (*experiments.Table, error) {
				_, t, err := experiments.AblationEvasionMargin(env)
				return t, err
			}},
			{"adaptive-attacker", func() (*experiments.Table, error) {
				_, t, err := experiments.AblationAdaptiveAttacker(env)
				return t, err
			}},
		}
		for _, a := range ablations {
			start := time.Now()
			t, err := a.fn()
			if err != nil {
				return fmt.Errorf("ablation %s: %w", a.name, err)
			}
			if err := emit(t); err != nil {
				return err
			}
			fmt.Printf("(%v)\n\n", time.Since(start).Round(time.Millisecond))
		}
	}

	// Figs 5 and 6 come from one combined experiment.
	if selected("5") || selected("6") {
		start := time.Now()
		_, fig5, fig6, err := experiments.Fig5And6(env)
		if err != nil {
			return fmt.Errorf("fig 5/6: %w", err)
		}
		if selected("5") {
			if err := emit(fig5); err != nil {
				return err
			}
		}
		if selected("6") {
			if err := emit(fig6); err != nil {
				return err
			}
		}
		fmt.Printf("(%v)\n\n", time.Since(start).Round(time.Millisecond))
	}
	return nil
}
