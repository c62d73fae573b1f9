package main

import (
	"fmt"

	"repro/internal/datagen"
	"repro/internal/models"
)

// The models are trained in set-up at the experiments' ci size with fixed
// seeds, the same recipe internal/expt uses, without its on-disk model
// cache: the benchmark neither reads nor writes anything outside its
// checkout, and set-up time must include training. Training at this size
// is bitwise-deterministic across processes.
const (
	trainDataSeed   = 1001
	trainSeed       = 2001
	quantizeSeed    = 3001
	ciBurstsPerAng  = 1
	ciTrainEpochs   = 6
	ciQATEpochs     = 2
	ciTrainBkgLR    = 5e-3
	ciTrainBkgBatch = 1024
)

func trainingSet() *datagen.Set {
	gen := datagen.DefaultConfig(trainDataSeed)
	gen.BurstsPerAngle = ciBurstsPerAng
	return datagen.Generate(gen)
}

func trainOptions(swapped bool) models.TrainOptions {
	opts := models.DefaultTrainOptions(trainSeed)
	opts.WithPolar = true
	opts.Swapped = swapped
	opts.MaxEpochs = ciTrainEpochs
	opts.Patience = ciTrainEpochs/3 + 2
	opts.BkgLR = ciTrainBkgLR
	opts.BkgBatch = ciTrainBkgBatch
	return opts
}

// trainFloat32 trains the production model pair (polar-angle input) that
// Tables I/II report with the float32 backend.
func trainFloat32() *models.Bundle {
	return models.Train(trainingSet(), trainOptions(false))
}

// trainInt8 trains the layer-swapped pair and attaches the QAT-quantized
// background network, as adapttrain -quantize does: the bundle serves the
// float32, int8 and fpga-sim backends.
func trainInt8() (*models.Bundle, error) {
	set := trainingSet()
	b := models.Train(set, trainOptions(true))
	qopts := models.DefaultQuantizeOptions(quantizeSeed)
	qopts.QATEpochs = ciQATEpochs
	n, _, err := models.QuantizeBackground(b, set, qopts)
	if err != nil {
		return nil, fmt.Errorf("quantize: %w", err)
	}
	b.Int8 = n
	return b, nil
}
