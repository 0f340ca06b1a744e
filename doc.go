// Package shmd is a from-scratch Go reproduction of "Stochastic-HMDs:
// Adversarial-Resilient Hardware Malware Detectors via Undervolting"
// (Islam, Alouani, Khasawneh — DAC 2023).
//
// The library implements the paper's contribution — hardware malware
// detectors hardened against black-box evasion by running their
// inference on an undervolted core — together with every substrate the
// evaluation depends on: a FANN-style fixed-point neural network
// library, a stochastic timing-violation fault injector, an MSR-level
// undervolting plane with per-device calibration, a synthetic
// program-trace corpus in place of the paper's Pin traces, the RHMD
// ensemble baseline, the
// reverse-engineering/evasion attack pipeline, and analytic
// power/latency/storage models.
//
// Entry points:
//
//   - internal/core       — the Stochastic-HMD itself
//   - internal/experiments — one function per paper figure/table
//   - cmd/shmd            — train/detect CLI
//   - cmd/experiments     — regenerate the evaluation
//   - cmd/characterize    — the Section II undervolting characterization
//
// See README.md for a walkthrough, DESIGN.md for the system inventory,
// and EXPERIMENTS.md for paper-vs-measured results.
package shmd
