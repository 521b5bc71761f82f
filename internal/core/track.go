package core

import (
	"fmt"

	"phasebeat/internal/trace"
)

// TrackPoint is one entry of a vital-sign time series.
type TrackPoint struct {
	// Time is the trace timestamp (seconds) at the window's end.
	Time float64
	// BreathingBPM and HeartBPM are the window estimates; NaN-free —
	// HasHeart reports whether a heart estimate was available.
	BreathingBPM float64
	HeartBPM     float64
	HasHeart     bool
	// Err is non-nil when the window could not be estimated (motion,
	// absence); the rate fields are zero in that case.
	Err error
}

// TrackConfig configures TrackRates.
type TrackConfig struct {
	// Pipeline is the processing configuration.
	Pipeline Config
	// WindowSeconds is the sliding analysis window.
	WindowSeconds float64
	// StrideSeconds is the spacing between consecutive estimates.
	StrideSeconds float64
}

// DefaultTrackConfig uses one-minute windows every 10 s.
func DefaultTrackConfig() TrackConfig {
	return TrackConfig{
		Pipeline:      DefaultConfig(),
		WindowSeconds: 60,
		StrideSeconds: 10,
	}
}

// TrackRates slides the pipeline over a recorded trace, producing a
// vital-sign time series — the offline counterpart of the streaming
// Monitor, for analysing long captures (sleep studies). It drives the
// Monitor's stride engine synchronously, so its points are exactly a
// drained Monitor's updates over the same packets: the same quarantine
// (malformed, non-finite and backwards packets are skipped), the same gap
// re-anchoring, one point per stride once a full window is buffered.
func TrackRates(tr *trace.Trace, cfg TrackConfig) ([]TrackPoint, error) {
	if tr == nil || tr.Len() == 0 {
		return nil, fmt.Errorf("%w: empty trace", ErrNoData)
	}
	mcfg := MonitorConfig{
		Pipeline:           cfg.Pipeline,
		SampleRate:         tr.SampleRate,
		NumAntennas:        tr.NumAntennas,
		NumSubcarriers:     tr.NumSubcarriers,
		WindowSeconds:      cfg.WindowSeconds,
		UpdateEverySeconds: cfg.StrideSeconds,
	}
	if err := mcfg.check(); err != nil {
		return nil, err
	}
	if window, _ := windowGeometry(&mcfg); window > tr.Len() {
		return nil, fmt.Errorf("%w: window %d samples, trace %d", ErrNoData, window, tr.Len())
	}
	p, err := NewProcessor(WithConfig(cfg.Pipeline))
	if err != nil {
		return nil, err
	}
	e := mcfg.newEngine(p)
	defer e.release()
	var out []TrackPoint
	for _, pkt := range tr.Packets {
		if v, _ := e.push(pkt); v != pushAccepted || !e.ready() {
			continue
		}
		point := TrackPoint{Time: pkt.Time}
		res, err := e.process()
		switch {
		case err != nil:
			point.Err = err
		case res.Breathing != nil:
			point.BreathingBPM = res.Breathing.RateBPM
			if res.Heart != nil {
				point.HeartBPM = res.Heart.RateBPM
				point.HasHeart = true
			}
		default:
			point.Err = fmt.Errorf("%w: window produced no estimate", ErrNoData)
		}
		out = append(out, point)
	}
	return out, nil
}
