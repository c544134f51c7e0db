package main

import (
	"math"
	"math/rand/v2"

	"knnshapley"
)

// The inputs are MNIST-like: a 10-class Gaussian mixture in 64 dimensions
// whose class means lie on a sphere of radius 0.6, with per-coordinate
// noise 1/√64. The benchmark draws them itself, from the run's seed, so the
// program under test receives only the generated data.
const (
	dim        = 64
	classes    = 10
	separation = 0.6
	spread     = 1.0
)

// Random streams derived from the run's seed, one per kind of input.
const (
	streamTrain  uint64 = 1
	streamTest   uint64 = 2 // the serving workload's fixed test set
	streamWarm   uint64 = 3 // warm-up batch of the set-up
	streamCheck  uint64 = 4 // check batch of the LSH set-up
	streamSample uint64 = 5 // which ops are kept for the reference checks
	streamBatch  uint64 = 1 << 20
	streamTraced uint64 = 2 << 20
	streamDelta  uint64 = 1 << 32 // + client<<24 + cycle
)

// classMeans are fixed for all seeds, so every draw comes from the same
// population, as train and test sets must.
var classMeans = func() [][]float64 {
	rng := rand.New(rand.NewPCG(0x6d6e6973746c696b, 0x65))
	means := make([][]float64, classes)
	for c := range means {
		m := make([]float64, dim)
		var norm float64
		for j := range m {
			m[j] = rng.NormFloat64()
			norm += m[j] * m[j]
		}
		for j := range m {
			m[j] *= separation / math.Sqrt(norm)
		}
		means[c] = m
	}
	return means
}()

// genRows draws n labelled rows from stream of seed.
func genRows(seed, stream uint64, n int) ([][]float64, []int) {
	rng := rand.New(rand.NewPCG(seed, stream))
	sigma := spread / math.Sqrt(dim)
	flat := make([]float64, n*dim)
	x := make([][]float64, n)
	labels := make([]int, n)
	for i := range x {
		c := rng.IntN(classes)
		row := flat[i*dim : (i+1)*dim]
		for j := range row {
			row[j] = classMeans[c][j] + sigma*rng.NormFloat64()
		}
		x[i], labels[i] = row, c
	}
	return x, labels
}

// genDataset draws a classification dataset of n rows.
func genDataset(seed, stream uint64, n int) *knnshapley.Dataset {
	x, labels := genRows(seed, stream, n)
	d, err := knnshapley.NewClassificationDataset(x, labels)
	if err != nil {
		panic(err) // generated rows are always well-formed
	}
	return d
}
