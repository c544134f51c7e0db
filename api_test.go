package knnshapley

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
)

func smallSplit(t *testing.T) (*Dataset, *Dataset) {
	t.Helper()
	return SynthMNIST(150, 1), SynthMNIST(10, 2)
}

// session opens a Valuer over train, failing the test on error.
func session(t *testing.T, train *Dataset, opts ...Option) *Valuer {
	t.Helper()
	v, err := New(train, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestExactClassificationEndToEnd(t *testing.T) {
	train, test := smallSplit(t)
	ctx := context.Background()
	v := session(t, train, WithK(3))
	rep, err := v.Exact(ctx, test)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Values) != train.N() {
		t.Fatalf("%d values for %d points", len(rep.Values), train.N())
	}
	all := make([]int, train.N())
	for i := range all {
		all[i] = i
	}
	full, err := v.Utility(ctx, test, all)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := v.Utility(ctx, test, nil)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, sv := range rep.Values {
		total += sv
	}
	if math.Abs(total-(full-empty)) > 1e-9 {
		t.Fatalf("group rationality: Σsv=%v, ν(I)−ν(∅)=%v", total, full-empty)
	}
}

// The streamed engine path must return the same values for every batch
// size and worker count (the batches only change memory, never math).
func TestExactBatchSizeInvariance(t *testing.T) {
	train, test := smallSplit(t)
	ctx := context.Background()
	want, err := session(t, train, WithK(3), WithWorkers(1), WithBatchSize(test.N())).Exact(ctx, test)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ batch, workers int }{{1, 0}, {3, 2}, {64, 8}} {
		got, err := session(t, train, WithK(3), WithBatchSize(tc.batch), WithWorkers(tc.workers)).Exact(ctx, test)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Values {
			if got.Values[i] != want.Values[i] {
				t.Fatalf("batch %d workers %d: sv[%d] = %v, want %v (bitwise)",
					tc.batch, tc.workers, i, got.Values[i], want.Values[i])
			}
		}
	}
}

func TestExactRegressionEndToEnd(t *testing.T) {
	train := SynthRegression(100, 4, 0.1, 1)
	test := SynthRegression(8, 4, 0.1, 2)
	rep, err := session(t, train, WithK(2)).Exact(context.Background(), test)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Values) != 100 {
		t.Fatalf("%d values", len(rep.Values))
	}
}

func TestExactWeightedEndToEnd(t *testing.T) {
	train := SynthMNIST(25, 3)
	test := SynthMNIST(3, 4)
	ctx := context.Background()
	v := session(t, train, WithK(2), WithWeight(InverseDistance(0.5)))
	exact, err := v.Exact(ctx, test)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := v.MonteCarlo(ctx, test, MCOptions{Bound: Fixed, T: 4000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, sv := range exact.Values {
		if math.Abs(sv-mc.Values[i]) > 0.1 {
			t.Fatalf("exact %v vs MC %v at %d", sv, mc.Values[i], i)
		}
	}
}

// Sessions and methods must reject configurations the algorithms cannot
// serve: K = 0, a test set whose kind differs from the training set's, and
// the approximate methods outside unweighted L2 classification.
func TestConfigValidation(t *testing.T) {
	train, test := smallSplit(t)
	ctx := context.Background()
	check := func(name string, err error, want string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one containing %q", name, err, want)
		}
	}
	_, err := New(train, WithK(0))
	check("K=0", err, "K = 0")
	v := session(t, train, WithK(1))
	_, err = v.Exact(ctx, SynthRegression(10, train.Dim(), 0.1, 1))
	check("mixed train/test kinds", err, "incompatible with dataset responses")

	reg := SynthRegression(10, 4, 0.1, 1)
	_, err = session(t, reg, WithK(1)).Truncated(ctx, reg, 0.1)
	check("regression Truncated", err, "applies to unweighted classification")

	weighted := session(t, train, WithK(1), WithWeight(InverseDistance(1)))
	_, err = weighted.LSH(ctx, test, 0.1, 0.1, 1)
	check("weighted LSH", err, "applies to unweighted classification")
	_, err = weighted.KD(ctx, test, 0.1)
	check("weighted KD", err, "applies to unweighted classification")
	_, err = weighted.Truncated(ctx, test, 0.1)
	check("weighted Truncated", err, "applies to unweighted classification")

	cosine := session(t, train, WithK(1), WithMetric(Cosine))
	_, err = cosine.LSH(ctx, test, 0.1, 0.1, 1)
	check("cosine LSH", err, "p-stable LSH requires the L2 metric")
	_, err = cosine.KD(ctx, test, 0.1)
	check("cosine KD", err, "k-d tree backend requires the L2 metric")
}

func TestTruncatedWithinEps(t *testing.T) {
	train, test := smallSplit(t)
	ctx := context.Background()
	v := session(t, train, WithK(2))
	exact, err := v.Exact(ctx, test)
	if err != nil {
		t.Fatal(err)
	}
	eps := 0.1
	approx, err := v.Truncated(ctx, test, eps)
	if err != nil {
		t.Fatal(err)
	}
	for i, sv := range exact.Values {
		if math.Abs(sv-approx.Values[i]) > eps {
			t.Fatalf("error %v > eps at %d", sv-approx.Values[i], i)
		}
	}
}

func TestLSHValuerEndToEnd(t *testing.T) {
	train := SynthDeep(1000, 7)
	test := SynthDeep(10, 8)
	ctx := context.Background()
	v := session(t, train, WithK(2))
	rep, err := v.LSH(ctx, test, 0.1, 0.1, 9)
	if err != nil {
		t.Fatal(err)
	}
	if rep.KStar != 10 {
		t.Fatalf("KStar = %d", rep.KStar)
	}
	lv, err := v.lshValuer(0.1, 0.1, 9)
	if err != nil {
		t.Fatal(err)
	}
	if ck := lv.Tuned().Contrast.CK; ck <= 1 {
		t.Fatalf("contrast %v", ck)
	}
	exact, err := v.Exact(ctx, test)
	if err != nil {
		t.Fatal(err)
	}
	for i, sv := range rep.Values {
		if math.Abs(sv-exact.Values[i]) > 0.1 {
			t.Fatalf("LSH error %v at %d", sv-exact.Values[i], i)
		}
	}
}

func TestKDValuerEndToEnd(t *testing.T) {
	train := SynthDeep(800, 11)
	test := SynthDeep(10, 12)
	ctx := context.Background()
	v := session(t, train, WithK(2))
	rep, err := v.KD(ctx, test, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.KStar != 10 {
		t.Fatalf("KStar = %d", rep.KStar)
	}
	// The kd-tree retrieval is exact, so the result equals the sort-based
	// truncation bit-for-bit.
	want, err := v.Truncated(ctx, test, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for i, sv := range rep.Values {
		if sv != want.Values[i] {
			t.Fatalf("kd vs truncated at %d: %v != %v", i, sv, want.Values[i])
		}
	}
	kv, err := v.kdValuer(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if one := kv.ValueOne(test.X[0], test.Labels[0]); len(one) != train.N() {
		t.Fatalf("ValueOne length %d", len(one))
	}
}

func TestMonteCarloBudgets(t *testing.T) {
	train, test := smallSplit(t)
	ctx := context.Background()
	v := session(t, train, WithK(5))
	ben, err := v.MonteCarlo(ctx, test, MCOptions{Eps: 0.1, Delta: 0.1, Bound: Bennett, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	hoef, err := v.MonteCarlo(ctx, test, MCOptions{Eps: 0.1, Delta: 0.1, Bound: Hoeffding, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ben.Budget >= hoef.Budget {
		t.Fatalf("Bennett %d >= Hoeffding %d", ben.Budget, hoef.Budget)
	}
}

func TestBaselineMonteCarloRuns(t *testing.T) {
	train := SynthMNIST(40, 5)
	test := SynthMNIST(3, 6)
	rep, err := session(t, train, WithK(1)).BaselineMonteCarlo(context.Background(), test, 0.2, 0.2, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Permutations == 0 || len(rep.Values) != 40 {
		t.Fatalf("report %+v", rep)
	}
}

func TestSellerValuesExactVsMC(t *testing.T) {
	train := SynthMNIST(30, 7)
	test := SynthMNIST(4, 8)
	ctx := context.Background()
	v := session(t, train, WithK(2))
	owners := AssignSellers(train.N(), 5)
	exact, err := v.Sellers(ctx, test, owners, 5)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := v.SellersMC(ctx, test, owners, 5, MCOptions{Bound: Fixed, T: 3000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for j, sv := range exact.Values {
		if math.Abs(sv-mc.Values[j]) > 0.05 {
			t.Fatalf("seller %d: exact %v vs MC %v", j, sv, mc.Values[j])
		}
	}
}

func TestCompositeValuesPointLevel(t *testing.T) {
	train, test := smallSplit(t)
	ctx := context.Background()
	v := session(t, train, WithK(10))
	rep, err := v.Composite(ctx, test, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, train.N())
	for i := range all {
		all[i] = i
	}
	full, err := v.Utility(ctx, test, all)
	if err != nil {
		t.Fatal(err)
	}
	total := rep.Analyst
	for _, sv := range rep.Values {
		total += sv
	}
	if math.Abs(total-full) > 1e-9 {
		t.Fatalf("composite total %v != ν(I) %v", total, full)
	}
	if rep.Analyst < full/2 {
		t.Fatalf("analyst %v below half of %v", rep.Analyst, full)
	}
}

func TestCompositeValuesSellerLevel(t *testing.T) {
	train := SynthMNIST(24, 9)
	test := SynthMNIST(3, 10)
	owners := AssignSellers(train.N(), 4)
	rep, err := session(t, train, WithK(2)).Composite(context.Background(), test, owners, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Values) != 4 {
		t.Fatalf("%d sellers", len(rep.Values))
	}
}

func TestMonetize(t *testing.T) {
	sv := []float64{0.1, 0.3, 0.6}
	money := Monetize(sv, 100, 30)
	want := []float64{20, 40, 70}
	for i := range want {
		if math.Abs(money[i]-want[i]) > 1e-12 {
			t.Fatalf("Monetize = %v want %v", money, want)
		}
	}
	if out := Monetize(nil, 1, 1); len(out) != 0 {
		t.Fatal("empty monetize")
	}
}

func TestDatasetConstructorsAndCSV(t *testing.T) {
	d, err := NewClassificationDataset([][]float64{{1, 2}, {3, 4}}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.Classes != 2 {
		t.Fatalf("classes = %d", d.Classes)
	}
	if _, err := NewClassificationDataset([][]float64{{1}}, []int{0, 1}); err == nil {
		t.Error("mismatched labels accepted")
	}
	r, err := NewRegressionDataset([][]float64{{1}, {2}}, []float64{0.5, 1.5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 2 || back.Targets[1] != 1.5 {
		t.Fatalf("round trip: %+v", back)
	}
}
