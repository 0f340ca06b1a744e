package main

import (
	"bytes"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json at the repository
// root identical to what `perfbench --spec` prints.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	want, err := benchSpec()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with\n  bash perfbench/run.sh --spec > BENCHMARK.json")
	}
}
