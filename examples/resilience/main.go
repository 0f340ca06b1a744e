// Resilience: run the Stochastic-HMD on a hostile operating point and
// watch the session supervisor ride through it. The paper (Section IX)
// holds the detection core just above crash voltage, where real
// silicon drifts with temperature, MSR writes fail, and the regulator
// can die. This demo scripts exactly those events against the chaos
// environment and shows the supervisor retrying, recalibrating, and —
// only when the hardware is gone for good — degrading to flagged
// nominal-voltage detection instead of going dark.
//
//	go run ./examples/resilience
package main

import (
	"fmt"
	"log"

	"shmd/internal/chaos"
	"shmd/internal/core"
	"shmd/internal/dataset"
	"shmd/internal/hmd"
	"shmd/internal/volt"
)

func main() {
	// 1. Corpus and baseline detector, as in the quickstart.
	data, err := dataset.Generate(dataset.QuickConfig(1))
	if err != nil {
		log.Fatal(err)
	}
	split, err := data.ThreeFold(0)
	if err != nil {
		log.Fatal(err)
	}
	detector, err := hmd.Train(data.Select(split.VictimTrain), hmd.Config{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Hostile hardware: the ideal regulator wrapped in a chaos
	// environment. Probabilistic rules stay disarmed — this demo
	// scripts every event so the story is deterministic.
	reg, err := volt.NewRegulator(volt.PlaneCore, volt.NewDeviceProfile(0))
	if err != nil {
		log.Fatal(err)
	}
	env, err := chaos.NewEnv(reg, chaos.Config{Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	protected, err := core.NewOnPlane(detector, env, core.Options{ErrorRate: 0.1, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}

	// 3. The self-healing supervisor: canary every other detection so
	// drift is caught quickly in this short demo.
	sup, err := core.NewSupervisor(protected, core.SupervisorConfig{
		CanaryEvery: 2,
		CanaryMuls:  6000,
	})
	if err != nil {
		log.Fatal(err)
	}
	windows := data.Programs[0].Windows

	detect := func(label string) {
		v, err := sup.DetectProgram(windows)
		if err != nil {
			log.Fatal(err)
		}
		mode := "protected"
		if v.Unprotected {
			mode = "UNPROTECTED"
		}
		fmt.Printf("  %-28s malware=%-5v score=%.4f [%s] depth %.1f mV, plane nominal=%v\n",
			label, v.Malware, v.Score, mode, sup.Session().Depth(), sup.Session().AtNominal())
	}

	fmt.Printf("operating point: %.4f error rate at %.1f mV undervolt, %.0f °C\n\n",
		sup.TargetRate(), sup.Session().Depth(), env.Temperature())

	fmt.Println("phase 1 — healthy environment:")
	detect("detection")
	detect("detection")

	fmt.Println("\nphase 2 — burst of transient MSR write failures:")
	if err := env.Trigger(chaos.Rule{Kind: chaos.TransientMSR, Duration: 3}); err != nil {
		log.Fatal(err)
	}
	detect("detection (through burst)")
	h := sup.Health()
	fmt.Printf("  supervisor absorbed the burst: %d retries, state %v\n", h.Retries, h.State)

	fmt.Println("\nphase 3 — thermal excursion (+40 °C) drifts the fault rate:")
	if err := env.Trigger(chaos.Rule{Kind: chaos.ThermalExcursion, Magnitude: 40, Duration: 10000}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  die now at %.0f °C; silicon would fault at %.4f instead of %.4f\n",
		env.Temperature(),
		env.Profile().ErrorRate(sup.Session().Depth(), env.Temperature()),
		sup.TargetRate())
	detect("detection (canary fires)")
	detect("detection (back in band)")
	h = sup.Health()
	fmt.Printf("  canaries %d, drifts caught %d, recalibrations %d -> new depth %.1f mV\n",
		h.Canaries, h.Drifts, h.Recalibrations, sup.Session().Depth())
	observed, err := sup.Session().ObserveRate(8000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  observed fault rate after self-healing: %.4f (target %.4f)\n",
		observed, sup.TargetRate())

	fmt.Println("\nphase 4 — the regulator dies permanently:")
	if err := env.Trigger(chaos.Rule{Kind: chaos.PermanentMSR}); err != nil {
		log.Fatal(err)
	}
	detect("detection (breaker trips)")
	detect("detection (degraded)")
	detect("detection (degraded)")

	h = sup.Health()
	fmt.Printf("\nfinal health: state=%v detections=%d protected=%d unprotected=%d\n",
		h.State, h.Detections, h.Protected, h.Unprotected)
	fmt.Printf("              retries=%d trips=%d recoveries=%d recalibrations=%d\n",
		h.Retries, h.Trips, h.Recoveries, h.Recalibrations)
	ev := env.Events()
	fmt.Printf("chaos events: writes=%d transients=%d excursions=%d permanents=%d\n",
		ev.Writes, ev.Transients, ev.Excursions, ev.Permanents)
	fmt.Println("\nevery request returned a decision; unprotected ones are flagged so")
	fmt.Println("downstream consumers know the moving-target defense was absent.")
}
