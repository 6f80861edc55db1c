package stats

import (
	"math"
	"testing"
)

func TestEvalAccuracyKnown(t *testing.T) {
	exact := []float64{0.5, 0.25}
	estimates := [][]float64{
		{0.5, 0.6}, // errors 0, 0.1
		{0.25, 0.2},
	}
	acc, err := EvalAccuracy(exact, estimates)
	if err != nil {
		t.Fatal(err)
	}
	wantVar := (0 + 0.01 + 0 + 0.0025) / 4
	wantErr := (0 + 0.1/0.5 + 0 + 0.05/0.25) / 4
	if math.Abs(acc.Variance-wantVar) > 1e-12 {
		t.Fatalf("variance = %v, want %v", acc.Variance, wantVar)
	}
	if math.Abs(acc.ErrorRate-wantErr) > 1e-12 {
		t.Fatalf("error rate = %v, want %v", acc.ErrorRate, wantErr)
	}
	if acc.Searches != 2 || acc.Repeats != 2 {
		t.Fatalf("shape: %+v", acc)
	}
}

func TestEvalAccuracyExactRuns(t *testing.T) {
	// All estimates exactly right: both metrics zero (Table 4's Pro rows).
	exact := []float64{0.1, 0.9}
	estimates := [][]float64{{0.1, 0.1}, {0.9, 0.9}}
	acc, err := EvalAccuracy(exact, estimates)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Variance != 0 || acc.ErrorRate != 0 {
		t.Fatalf("exact runs must give zero metrics: %+v", acc)
	}
}

func TestEvalAccuracyZeroReliabilityAllZeroEstimates(t *testing.T) {
	acc, err := EvalAccuracy([]float64{0}, [][]float64{{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if acc.ErrorRate != 0 {
		t.Fatalf("zero matched by zero must be zero error, got %v", acc.ErrorRate)
	}
}

func TestEvalAccuracyShapeErrors(t *testing.T) {
	if _, err := EvalAccuracy(nil, nil); err == nil {
		t.Error("empty inputs accepted")
	}
	if _, err := EvalAccuracy([]float64{1}, [][]float64{}); err == nil {
		t.Error("mismatched q1 accepted")
	}
	if _, err := EvalAccuracy([]float64{1, 2}, [][]float64{{1}, {}}); err == nil {
		t.Error("ragged estimates accepted")
	}
	if _, err := EvalAccuracy([]float64{1}, [][]float64{{}}); err == nil {
		t.Error("zero repeats accepted")
	}
}
