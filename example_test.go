package phasebeat_test

import (
	"fmt"
	"log"

	"phasebeat"
)

// ExampleProcessTrace simulates a minute of a sitting person and runs the
// batch pipeline.
func ExampleProcessTrace() {
	tr, truth, err := phasebeat.Simulate(phasebeat.Scenario{
		Kind:          phasebeat.ScenarioLaboratory,
		TxRxDistanceM: 3,
		NumPersons:    1,
		Seed:          2024,
	}, 60)
	if err != nil {
		log.Fatal(err)
	}
	res, err := phasebeat.ProcessTrace(tr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("error below 1 bpm: %v\n",
		res.Breathing.RateBPM-truth[0].BreathingBPM < 1 &&
			truth[0].BreathingBPM-res.Breathing.RateBPM < 1)
	// Output:
	// error below 1 bpm: true
}

// ExampleProcessTrace_multiPerson separates two breathing rates with
// root-MUSIC.
func ExampleProcessTrace_multiPerson() {
	tr, _, err := phasebeat.SimulateFixedRates([]float64{12, 18}, 90, 10)
	if err != nil {
		log.Fatal(err)
	}
	res, err := phasebeat.ProcessTrace(tr, phasebeat.WithPersons(2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d rates estimated by %s\n",
		len(res.MultiPerson.RatesBPM), res.MultiPerson.Method)
	// Output:
	// 2 rates estimated by root-music
}

// ExampleEstimateAmplitudeBaseline runs the comparison method of Liu et
// al. [13] on the same trace.
func ExampleEstimateAmplitudeBaseline() {
	tr, _, err := phasebeat.SimulateFixedRates([]float64{17}, 60, 3)
	if err != nil {
		log.Fatal(err)
	}
	est, err := phasebeat.EstimateAmplitudeBaseline(tr, phasebeat.DefaultBaselineConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("amplitude method picked one of 30 subcarriers: %v\n",
		est.Subcarrier >= 0 && est.Subcarrier < 30)
	// Output:
	// amplitude method picked one of 30 subcarriers: true
}

// ExampleNewMonitor_replay tracks the rates over a recorded capture, the
// way a long (overnight) recording is analysed offline: it replays the
// trace's packets through a Monitor, collects its updates on a goroutine
// and drains it, so every stride of the recording yields one update.
func ExampleNewMonitor_replay() {
	tr, _, err := phasebeat.SimulateFixedRates([]float64{15}, 80, 5)
	if err != nil {
		log.Fatal(err)
	}
	cfg := phasebeat.DefaultMonitorConfig()
	cfg.SampleRate = tr.SampleRate
	cfg.NumAntennas = tr.NumAntennas
	cfg.NumSubcarriers = tr.NumSubcarriers
	cfg.WindowSeconds = 40
	cfg.UpdateEverySeconds = 10
	m, err := phasebeat.NewMonitor(cfg)
	if err != nil {
		log.Fatal(err)
	}
	var updates []phasebeat.Update
	done := make(chan struct{})
	go func() {
		defer close(done)
		for u := range m.Updates() {
			updates = append(updates, u)
		}
	}()
	for _, p := range tr.Packets {
		m.Ingest(p)
	}
	m.Drain() // process every queued packet, then close Updates
	<-done
	fmt.Printf("%d updates\n", len(updates))
	for _, u := range updates {
		fmt.Printf("breathing estimate: %v\n", u.Err == nil && u.Result.Breathing != nil)
	}
	// Output:
	// 5 updates
	// breathing estimate: true
	// breathing estimate: true
	// breathing estimate: true
	// breathing estimate: true
	// breathing estimate: true
}
