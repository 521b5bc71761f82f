package eval

import (
	"fmt"

	"phasebeat/internal/core"
	"phasebeat/internal/csisim"
)

// Fig08MultiPersonFFT reproduces Fig. 8: FFT-based breathing estimation
// resolves two persons (0.2 and 0.3 Hz) but fails for three with close
// rates (0.1467, 0.2233, 0.2483 Hz), where root-MUSIC succeeds.
func Fig08MultiPersonFFT(opts Options) (*Report, error) {
	opts = opts.withDefaults(1)
	cases := []struct {
		name  string
		rates []float64 // bpm
	}{
		{"two persons", []float64{12, 18}},            // 0.2, 0.3 Hz
		{"three persons", []float64{8.8, 13.4, 14.9}}, // the paper's 0.1467/0.2233/0.2483 Hz
	}
	rows := make([][]string, 0, 2*len(cases))
	for ci, tc := range cases {
		sim, err := csisim.FixedRatesScenario(tc.rates, opts.Seed+int64(ci)*31+2)
		if err != nil {
			return nil, err
		}
		tr, err := sim.Generate(opts.DurationS * 1.5)
		if err != nil {
			return nil, err
		}
		p, err := opts.newProcessor(core.DefaultConfig(), len(tc.rates))
		if err != nil {
			return nil, err
		}
		res, err := p.Process(tr)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", tc.name, err)
		}
		fftEst, err := core.EstimateBreathingMultiFFT(res.Bands.Breathing, res.EstimationRate, len(tc.rates))
		fftStr := "failed"
		if err == nil {
			fftStr = bpmList(fftEst.RatesBPM)
		}
		rows = append(rows,
			[]string{tc.name, "truth", bpmList(tc.rates)},
			[]string{"", "FFT peaks", fftStr},
			[]string{"", "root-MUSIC (30 subcarriers)", bpmList(res.MultiPerson.RatesBPM)},
		)
	}
	return &Report{
		Name:  "fig08",
		Paper: "FFT resolves 2 persons (0.2/0.3 Hz) but merges close rates for 3; root-MUSIC recovers 0.1467/0.2233/0.2483 Hz",
		Table: Table{
			Title:  "Fig. 8 — multi-person breathing rates: FFT vs root-MUSIC (bpm)",
			Header: []string{"case", "method", "rates (bpm)"},
			Rows:   rows,
		},
	}, nil
}

func bpmList(rates []float64) string {
	s := ""
	for i, r := range rates {
		if i > 0 {
			s += ", "
		}
		s += f(r, 2)
	}
	return s
}

// Fig14MultiPersonAccuracy reproduces Fig. 14: breathing accuracy versus
// the number of persons for root-MUSIC with 30 subcarriers, root-MUSIC
// with a single subcarrier, and the FFT method.
func Fig14MultiPersonAccuracy(opts Options) (*Report, error) {
	opts = opts.withDefaults(12)
	personCounts := []int{2, 3, 4}
	rows := make([][]string, 0, len(personCounts))
	var notes []string
	for _, n := range personCounts {
		type multiTrial struct{ acc30, acc1, accFFT float64 }
		trials, failed := runTrials(opts.Trials, opts.Parallelism, func(trial int) (*multiTrial, error) {
			sim, err := csisim.Scenario{
				Kind:          csisim.ScenarioLaboratory,
				TxRxDistanceM: 3,
				NumPersons:    n,
				Seed:          opts.Seed + int64(trial)*109 + int64(n)*7,
			}.Build()
			if err != nil {
				return nil, err
			}
			tr, err := sim.Generate(opts.DurationS * 1.5)
			if err != nil {
				return nil, err
			}
			truths := make([]float64, 0, n)
			for _, t := range sim.Truth() {
				truths = append(truths, t.BreathingBPM)
			}
			p, err := opts.newProcessor(core.DefaultConfig(), n)
			if err != nil {
				return nil, err
			}
			res, err := p.Process(tr)
			if err != nil || res.MultiPerson == nil {
				return nil, fmt.Errorf("pipeline: %w", err)
			}
			out := &multiTrial{acc30: MatchedAccuracy(res.MultiPerson.RatesBPM, truths)}

			// Single-subcarrier root-MUSIC: only the selected subcarrier's
			// series acts as snapshot source.
			single := [][]float64{res.Calibrated[res.Selection.Selected]}
			if est, err := core.EstimateBreathingMultiRootMUSIC(single, res.EstimationRate, n); err == nil {
				out.acc1 = MatchedAccuracy(est.RatesBPM, truths)
			}
			if est, err := core.EstimateBreathingMultiFFT(res.Bands.Breathing, res.EstimationRate, n); err == nil {
				out.accFFT = MatchedAccuracy(est.RatesBPM, truths)
			}
			return out, nil
		})
		var s30, s1, sFFT float64
		var cnt int
		for _, t := range trials {
			if t == nil {
				continue
			}
			s30 += t.acc30
			s1 += t.acc1
			sFFT += t.accFFT
			cnt++
		}
		if cnt == 0 {
			rows = append(rows, []string{fmt.Sprint(n), "-", "-", "-"})
			notes = append(notes, fmt.Sprintf("%d persons: all trials failed", n))
			continue
		}
		if failed > 0 {
			notes = append(notes, fmt.Sprintf("%d persons: %d/%d trials rejected", n, failed, opts.Trials))
		}
		rows = append(rows, []string{
			fmt.Sprint(n),
			f(s30/float64(cnt), 3), f(s1/float64(cnt), 3), f(sFFT/float64(cnt), 3),
		})
	}
	return &Report{
		Name:  "fig14",
		Paper: "accuracy falls with person count; all >90% for 2 persons; root-MUSIC-30 best at 4 persons",
		Table: Table{
			Title:  fmt.Sprintf("Fig. 14 — multi-person breathing accuracy (%d trials/point)", opts.Trials),
			Header: []string{"persons", "root-MUSIC (30 sub)", "root-MUSIC (1 sub)", "FFT"},
			Rows:   rows,
		},
		Notes: notes,
	}, nil
}
