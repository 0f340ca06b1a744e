// Command shmd is the Stochastic-HMD toolkit CLI: synthesize the
// evaluation corpus, train a baseline detector, protect it with
// undervolting, and classify programs.
//
// Usage:
//
//	shmd dataset  [-seed N] [-scale quick|full]
//	shmd train    [-seed N] [-scale quick|full] -out model.fann
//	shmd detect   [-seed N] [-scale quick|full] -model model.fann
//	              [-class trojan] [-index 0] [-rate 0.1 | -undervolt 130]
//	              [-chaos] [-supervise]
//	shmd serve    -model model.fann [-addr 127.0.0.1:8080] [-pool 4]
//	              [-queue 8] [-rate 0.1 | -undervolt 130] [-chaos] [-pprof]
//	              [-journal cal.journal] [-lifecycle] [-hedge-after 0]
//	              [-deadline 0] [-trace decisions.trace] [-trace-buffer 64]
//	              [-registry models.d] [-canary-slots 1] [-canary-window 64]
//	              [-tenant id:class[:rate[:burst[:conc[:stride]]]] ...]
//	              [-tenant-default spec] [-tenant-anon spec]
//	              [-trace-tenants acme,beta]
//	shmd route    -backends http://127.0.0.1:8801,http://127.0.0.1:8802
//	              [-addr 127.0.0.1:8800] [-hedge-after 0] [-retries 2]
//	              [-breaker-threshold 3] [-breaker-cooldown 1s]
//	shmd soak     [-duration 30s] [-pool 3] [-rate 0.1] [-seed 1] [-report soak_report.json]
//	              [-wire] [-max-batch 0] [-max-batch-wait 0] [-hedge-after 5ms]
//	              [-deadline 2s] [-max-5xx 0.05] [-model model.fann]
//	              chaos (default): [-clients 4] [-journal cal.journal]
//	                               [-storm-every 100ms] [-permanent-at 0.3]
//	              -fleet:   [-clients 4] [-fleet-backends 3] [-kill-at 0.4] [-storm-every 100ms]
//	              -tenants: [-slo-p99 500ms] [-min-abusive-shed 0.5] [-journal cal.journal]
//	              -rollout: [-clients 4] [-journal cal.journal]
//	shmd replay   -model model.fann -trace decisions.trace [-v]
//	              [-registry models.d]
//	shmd inspect  -model model.fann
//
// With -chaos the detector runs on a fault-injecting environment
// (transient MSR failures, lock contention, thermal drift, supply
// droop, crash risk) instead of the ideal regulator; with -supervise a
// self-healing supervisor rides through those faults — retrying,
// recalibrating on drift, and degrading to flagged nominal-voltage
// detection rather than erroring out.
package main

import (
	"flag"
	"fmt"
	"os"

	"shmd/internal/chaos"
	"shmd/internal/core"
	"shmd/internal/dataset"
	"shmd/internal/hmd"
	"shmd/internal/trace"
	"shmd/internal/volt"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "dataset":
		err = cmdDataset(os.Args[2:])
	case "train":
		err = cmdTrain(os.Args[2:])
	case "detect":
		err = cmdDetect(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "route":
		err = cmdRoute(os.Args[2:])
	case "soak":
		err = cmdSoak(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "shmd: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "shmd:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `shmd — Stochastic hardware malware detector toolkit

commands:
  dataset   synthesize the evaluation corpus and print its composition
  train     train a baseline HMD on the victim fold and save the model
  detect    classify a program, optionally undervolted
  serve     run the HTTP/JSON detection service off a session pool
  route     run the fleet router over multiple detection backends
  soak      soak the service on real sockets and assert its invariants:
            chaos (default), -fleet, -tenants or -rollout
  replay    re-verify a served decision trace bit-for-bit, off-hardware
  inspect   print a saved model's structure and footprint`)
}

// scaleConfig resolves the -scale flag.
func scaleConfig(scale string, seed uint64) (dataset.Config, error) {
	switch scale {
	case "quick":
		return dataset.QuickConfig(seed), nil
	case "full":
		return dataset.PaperConfig(seed), nil
	default:
		return dataset.Config{}, fmt.Errorf("unknown scale %q (quick|full)", scale)
	}
}

func cmdDataset(args []string) error {
	fs := flag.NewFlagSet("dataset", flag.ExitOnError)
	seed := fs.Uint64("seed", 1, "corpus seed")
	scale := fs.String("scale", "quick", "corpus scale (quick|full)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := scaleConfig(*scale, *seed)
	if err != nil {
		return err
	}
	d, err := dataset.Generate(cfg)
	if err != nil {
		return err
	}
	malware, benign := d.Counts()
	fmt.Printf("corpus: %d programs (%d malware, %d benign), %d windows × %d instructions\n",
		len(d.Programs), malware, benign, cfg.Windows, cfg.WindowSize)
	perClass := map[trace.Class]int{}
	for _, p := range d.Programs {
		perClass[p.Class()]++
	}
	for c := trace.Class(0); int(c) < trace.NumClasses; c++ {
		fmt.Printf("  %-18s %d\n", c.String(), perClass[c])
	}
	split, err := d.ThreeFold(0)
	if err != nil {
		return err
	}
	fmt.Printf("folds: victim-train %d, attacker-train %d, test %d\n",
		len(split.VictimTrain), len(split.AttackerTrain), len(split.Test))
	return nil
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	seed := fs.Uint64("seed", 1, "corpus and training seed")
	scale := fs.String("scale", "quick", "corpus scale (quick|full)")
	out := fs.String("out", "model.fann", "output model path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := scaleConfig(*scale, *seed)
	if err != nil {
		return err
	}
	d, err := dataset.Generate(cfg)
	if err != nil {
		return err
	}
	split, err := d.ThreeFold(0)
	if err != nil {
		return err
	}
	fmt.Printf("training baseline HMD on %d programs...\n", len(split.VictimTrain))
	det, err := hmd.Train(d.Select(split.VictimTrain), hmd.Config{Seed: *seed})
	if err != nil {
		return err
	}
	c := hmd.Evaluate(det, d.Select(split.Test))
	fmt.Printf("test fold: %v\n", c)

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := det.SaveBundle(f)
	if err != nil {
		return err
	}
	fmt.Printf("saved detector bundle %s (%d bytes)\n", *out, n)
	return nil
}

func cmdDetect(args []string) error {
	fs := flag.NewFlagSet("detect", flag.ExitOnError)
	seed := fs.Uint64("seed", 1, "corpus seed")
	scale := fs.String("scale", "quick", "corpus scale (quick|full)")
	model := fs.String("model", "model.fann", "trained model path")
	class := fs.String("class", "trojan", "program class to run")
	index := fs.Int("index", 0, "program index within the class")
	rate := fs.Float64("rate", 0, "target multiplier error rate (0 = nominal)")
	undervolt := fs.Float64("undervolt", 0, "explicit undervolt depth in mV")
	repeats := fs.Int("repeats", 5, "detection repetitions (shows stochasticity)")
	withChaos := fs.Bool("chaos", false, "run on a fault-injecting environment instead of the ideal regulator")
	supervise := fs.Bool("supervise", false, "wrap detection in the self-healing supervisor")
	if err := fs.Parse(args); err != nil {
		return err
	}

	f, err := os.Open(*model)
	if err != nil {
		return err
	}
	det, err := hmd.LoadBundle(f)
	f.Close()
	if err != nil {
		return err
	}

	cls, err := trace.ParseClass(*class)
	if err != nil {
		return err
	}
	cfg, err := scaleConfig(*scale, *seed)
	if err != nil {
		return err
	}
	prog, err := trace.NewProgram(cls, *index, cfg.Seed)
	if err != nil {
		return err
	}
	windows, err := prog.Trace(cfg.Windows, cfg.WindowSize)
	if err != nil {
		return err
	}

	opts := core.Options{ErrorRate: *rate, UndervoltMV: *undervolt, Seed: *seed}
	var s *core.StochasticHMD
	var env *chaos.Env
	if *withChaos {
		reg, err := volt.NewRegulator(volt.PlaneCore, volt.NewDeviceProfile(opts.DeviceSeed))
		if err != nil {
			return err
		}
		env, err = chaos.NewEnv(reg, chaos.DefaultConfig(*seed))
		if err != nil {
			return err
		}
		s, err = core.NewOnPlane(det, env, opts)
		if err != nil {
			return err
		}
	} else {
		s, err = core.New(det, opts)
		if err != nil {
			return err
		}
	}
	fmt.Printf("program %s (ground truth: malware=%v)\n", prog.Name, prog.IsMalware())
	fmt.Printf("detector: supply %.3f V (undervolt %.1f mV), error rate %.4f\n",
		s.SupplyVoltage(), volt.DepthAtVoltage(s.SupplyVoltage()), s.ErrorRate())

	if *supervise {
		sup, err := core.NewSupervisor(s, core.SupervisorConfig{})
		if err != nil {
			return err
		}
		for i := 0; i < *repeats; i++ {
			v, err := sup.DetectProgram(windows)
			if err != nil {
				return err
			}
			mode := "protected"
			if v.Unprotected {
				mode = "UNPROTECTED"
			}
			fmt.Printf("  run %d: malware=%v score=%.4f [%s, attempts %d]\n",
				i+1, v.Malware, v.Score, mode, v.Attempts)
		}
		h := sup.Health()
		fmt.Printf("supervisor: state=%v protected=%d unprotected=%d retries=%d trips=%d recalibrations=%d\n",
			h.State, h.Protected, h.Unprotected, h.Retries, h.Trips, h.Recalibrations)
		if env != nil {
			ev := env.Events()
			fmt.Printf("chaos: writes=%d transients=%d contentions=%d excursions=%d droops=%d crashes=%d\n",
				ev.Writes, ev.Transients, ev.Contentions, ev.Excursions, ev.Droops, ev.Crashes)
		}
		return nil
	}
	for i := 0; i < *repeats; i++ {
		dec := s.DetectProgram(windows)
		fmt.Printf("  run %d: malware=%v score=%.4f\n", i+1, dec.Malware, dec.Score)
	}
	return nil
}

func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	model := fs.String("model", "model.fann", "trained model path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := os.Open(*model)
	if err != nil {
		return err
	}
	defer f.Close()
	det, err := hmd.LoadBundle(f)
	if err != nil {
		return err
	}
	net := det.Network()
	cfg := det.Config()
	fmt.Printf("feature set: %v, period %d, threshold %.2f\n", cfg.FeatureSet, cfg.Period, cfg.Threshold)
	fmt.Printf("layers:  %v\n", net.Layers())
	fmt.Printf("weights: %d\n", net.NumWeights())
	fmt.Printf("hidden activation: %v\n", net.HiddenActivation())
	fmt.Printf("output activation: %v\n", net.OutputActivation())
	fmt.Printf("storage: %d bytes (%.1f KB)\n", net.SavedSize(), float64(net.SavedSize())/1024)
	return nil
}
