package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"phasebeat/internal/core"
	"phasebeat/internal/csisim"
	"phasebeat/internal/trace"
)

// sceneSpec is one simulated room: the paper's scenario kind, how many
// people breathe in it, and the seed its geometry and people derive from.
type sceneSpec struct {
	kind    csisim.ScenarioKind
	persons int
	dist    float64 // Tx-Rx distance, m
	seed    int64
}

// maxRedraws bounds how often a vetted scene is redrawn.
const maxRedraws = 6

// stationaryVet accepts a scene when the batch pipeline, configured like
// the workload's sessions, estimates over it and classifies every
// environment window as a stationary person. Any window of such a scene
// then holds a stationary run, so no update abstains: a room where the
// pipeline abstains is an honest outcome, but not the estimating path the
// benchmark times, and abstaining windows also do less work than
// estimating ones, which would make each seed's timings depend on how
// many it drew.
func stationaryVet(cfg core.Config) func(*scene) error {
	return func(sc *scene) error {
		p, err := core.NewProcessor(core.WithConfig(cfg), core.WithPersons(sc.spec.persons))
		if err != nil {
			return err
		}
		res, err := p.Process(sc.tr)
		if err != nil {
			return err
		}
		for i, st := range res.Environment.States {
			if st != core.EnvStationary {
				return fmt.Errorf("environment window %d is %v", i, st)
			}
		}
		return nil
	}
}

// scene is a generated packet stream plus its ground truth. Its packets
// are shared read-only by every session replaying it.
type scene struct {
	spec  sceneSpec
	tr    *trace.Trace
	truth []csisim.VitalTruth
}

// sceneSpecs draws n scene specs from the workload seed. kinds cycles
// through the given scenario kinds; the last twoPerson specs place two
// people in the room (so the multi-person root-MUSIC path runs).
func sceneSpecs(seed int64, n, twoPerson int, kinds []csisim.ScenarioKind) []sceneSpec {
	rng := rand.New(rand.NewSource(seed))
	out := make([]sceneSpec, n)
	for i := range out {
		persons := 1
		if i >= n-twoPerson {
			persons = 2
		}
		kind := kinds[i%len(kinds)]
		// 1.5–3 m Tx-Rx for every kind: inside the range the paper covers
		// well, so accuracy errors are estimator errors, not blind spots.
		dist := 1.5 + rng.Float64()*1.5
		out[i] = sceneSpec{kind: kind, persons: persons, dist: dist, seed: rng.Int63()}
	}
	return out
}

// generateScenes simulates every spec for the given duration at rate Hz,
// keeping the first subcarriers of each packet, on up to GOMAXPROCS
// goroutines. A non-nil vet is run on every scene; a scene it rejects is
// redrawn from a derived seed (a few attempts at most).
func generateScenes(specs []sceneSpec, rate, seconds float64, subcarriers int, vet func(*scene) error) ([]*scene, error) {
	out := make([]*scene, len(specs))
	errs := make([]error, len(specs))
	next := make(chan int)
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	if workers > len(specs) {
		workers = len(specs)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				sp := specs[i]
				for attempt := 0; ; attempt++ {
					out[i], errs[i] = generateScene(sp, rate, seconds, subcarriers)
					// After maxRedraws the last draw is kept: its failures
					// then show in the run's fail count instead of aborting.
					if errs[i] != nil || vet == nil || attempt == maxRedraws || vet(out[i]) == nil {
						break
					}
					sp.seed += 7919
				}
			}
		}()
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("scene %d: %w", i, err)
		}
	}
	return out, nil
}

func generateScene(sp sceneSpec, rate, seconds float64, subcarriers int) (*scene, error) {
	sim, err := csisim.Scenario{
		Kind:          sp.kind,
		TxRxDistanceM: sp.dist,
		NumPersons:    sp.persons,
		SampleRate:    rate,
		Seed:          sp.seed,
	}.Build()
	if err != nil {
		return nil, err
	}
	tr, err := sim.Generate(seconds)
	if err != nil {
		return nil, err
	}
	if subcarriers < tr.NumSubcarriers {
		// Slice every row down in place: the packets share the simulator's
		// slabs, and the session ingest path never mutates them.
		for i := range tr.Packets {
			for a, row := range tr.Packets[i].CSI {
				tr.Packets[i].CSI[a] = row[:subcarriers:subcarriers]
			}
		}
		tr.NumSubcarriers = subcarriers
	}
	return &scene{spec: sp, tr: tr, truth: sim.Truth()}, nil
}
