// Person counting: the paper assumes the number of monitored persons is
// known; this example uses the repository's extension — eigenvalue-gap
// order selection on the breathing-band correlation matrix — to estimate
// the count first, then runs root-MUSIC with it.
package main

import (
	"fmt"
	"log"

	"phasebeat"
	"phasebeat/internal/core"
)

func main() {
	for _, rates := range [][]float64{
		{14},
		{11, 19},
		{9, 15, 23},
	} {
		tr, _, err := phasebeat.SimulateFixedRates(rates, 90, 31)
		if err != nil {
			log.Fatal(err)
		}
		// First pass with an assumed single person just to get the
		// calibrated matrix.
		res, err := phasebeat.ProcessTrace(tr)
		if err != nil {
			log.Fatal(err)
		}
		count, err := core.EstimatePersonCount(res.Calibrated, res.EstimationRate, 5)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("true persons: %d, estimated: %d", len(rates), count)

		// Second pass with the estimated count.
		res2, err := phasebeat.ProcessTrace(tr, phasebeat.WithPersons(count))
		if err != nil {
			log.Fatal(err)
		}
		switch {
		case res2.MultiPerson != nil:
			fmt.Printf(", rates: %v bpm\n", roundAll(res2.MultiPerson.RatesBPM))
		case res2.Breathing != nil:
			fmt.Printf(", rate: %.1f bpm\n", res2.Breathing.RateBPM)
		default:
			fmt.Println(", no estimate")
		}
	}
}

func roundAll(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(int(x*10+0.5)) / 10
	}
	return out
}
