package core

import (
	"phasebeat/internal/dsp"
	"phasebeat/internal/music"
	"phasebeat/internal/wavelet"
)

// observeStride is the once-per-stride entry point of the incremental
// estimate stage, called from the DWT stage after segmentation, calibration
// and selection have run. It consumes the accumulated slide, advances (or
// re-anchors) the streaming state, and decides whether this stride runs the
// exact estimators (refresh) or the tracked path.
func (es *estimateState) observeStride(st *pipelineState) {
	if es == nil || !es.strideOpen {
		return
	}
	es.strideOpen = false
	slide := es.pendingSlide
	es.pendingSlide = 0
	es.lastTracked = false
	cfg := &st.proc.cfg

	// Calibrated rows are adjacent spans of one flat subcarrier-major slab
	// (see Downsample), so the per-stride appends below stream sequential
	// memory rather than chasing per-subcarrier heap rows.
	calib := st.res.Calibrated
	n := 0
	if len(st.smoothed) > 0 {
		n = len(st.smoothed[0])
	}
	seg := st.res.StationarySegment
	fullWindow := n > 0 && seg.StartSample == 0 && seg.EndSample == n
	if !fullWindow || len(calib) == 0 || len(calib[0]) == 0 || cfg.UseSWT {
		// The streams only model full-window strides; anything else cools
		// them and the next full-window stride re-anchors.
		es.invalidate()
		es.exactStride = true
		es.forceRefresh()
		return
	}
	nDec := len(calib[0])
	dSettle := settledDecimated(n, smoothMargin(cfg), cfg.DownsampleFactor)
	if dSettle > nDec {
		dSettle = nDec
	}

	slideDec := -1
	if slide >= 0 && slide%cfg.DownsampleFactor == 0 {
		slideDec = slide / cfg.DownsampleFactor
	}

	es.sinceRefresh++
	es.exactStride = es.sinceRefresh >= es.refreshEvery

	fs := st.res.EstimationRate
	if es.wantMusic {
		es.music.usable = es.music.advance(es, calib, st.eligible, fs, nDec, dSettle, slideDec)
	}
	es.dwt.usable = es.dwt.advance(cfg, calib, st.res.Selection, fs, nDec, dSettle, slideDec)

	if !es.music.usable && !es.dwt.usable {
		// Nothing incremental can serve this stride; run exact without
		// charging the refresh schedule.
		es.exactStride = true
		es.forceRefresh()
		return
	}

	if es.exactStride {
		es.sinceRefresh = 0
		es.exactRefreshes++
	}
	// Re-seed the tracker from the streaming matrix on every exact stride
	// and whenever it is cold (fresh anchor mid-cycle), so the next tracked
	// stride refines an exact subspace.
	ms := &es.music
	if ms.usable && ms.sc.Ready() && (es.exactStride || !ms.tracker.Warm()) {
		if r, err := ms.sc.Matrix(); err == nil {
			if err := ms.tracker.Refresh(r); err == nil {
				es.lastResidual = ms.tracker.Residual()
			}
		}
	}
}

// advance slides the music streams by one stride, re-anchoring when the
// grid moved in a way the streams cannot follow (mask change, slide not on
// the decimation grid, window jump). Returns whether the streams are warm
// and aligned with the current window.
func (ms *musicStream) advance(es *estimateState, calib [][]float64, eligible []bool, fs float64, nDec, dSettle, slideDec int) bool {
	cfg := es.cfg
	kept := keptRows(eligible, len(calib), ms.keptScratch)
	ms.keptScratch = kept[:0]
	aligned := ms.active &&
		slideDec >= 0 &&
		slideDec%cfg.MusicDecimate == 0 &&
		nDec == ms.nDec &&
		equalInts(kept, ms.kept) &&
		ms.fed-slideDec >= 0 &&
		ms.fed-slideDec <= dSettle
	if !aligned {
		return ms.anchor(es, calib, kept, fs, nDec, dSettle)
	}
	ms.fed -= slideDec
	for ri := range ms.rows {
		ms.rows[ri].center -= slideDec
	}
	ms.feed(calib, cfg.MusicDecimate, dSettle)
	return true
}

// anchor rebuilds the music streams on the current window's grid and feeds
// the settled prefix. The subspace tracker is cooled — observeStride
// re-seeds it from the fresh correlation matrix.
func (ms *musicStream) anchor(es *estimateState, calib [][]float64, kept []int, fs float64, nDec, dSettle int) bool {
	cfg := es.cfg
	ms.active = false
	nExp := 2 * es.persons
	if nExp >= cfg.MusicWindow || fs <= 0 {
		return false
	}

	// Mirror prepareMusicSeries' adaptive tap count on the full calibrated
	// length so the streaming band-pass matches the batch one.
	taps := 161
	if limit := nDec/3 | 1; limit < taps {
		taps = limit
	}
	var bpTaps []float64
	if taps >= 31 {
		bp, err := dsp.BandPassFIR(cfg.BreathBandLow*0.8, cfg.BreathBandHigh*1.05, fs, taps)
		if err != nil {
			return false
		}
		bpTaps = bp.Taps
	}
	firHalf := 0
	if bpTaps != nil {
		firHalf = (len(bpTaps) - 1) / 2
	}
	maHalf := cfg.MusicDecimate / 2

	// Steady-state availability: after feeding the settled prefix, the
	// newest decimated music sample has calibrated index ≲ dSettle−1−
	// firHalf−maHalf. The view must fit inside that with a little slack or
	// Ready would never fire.
	firstCenter := firHalf + maHalf
	lastCenter := dSettle - 1 - firHalf - maHalf
	if lastCenter < firstCenter {
		return false
	}
	avail := (lastCenter-firstCenter)/cfg.MusicDecimate + 1
	view := avail - 2
	if batchLen := (nDec + cfg.MusicDecimate - 1) / cfg.MusicDecimate; view > batchLen {
		view = batchLen
	}
	if view < cfg.MusicWindow+4 {
		return false
	}

	opts := music.CorrelationOptions{
		WindowLen:       cfg.MusicWindow,
		ForwardBackward: true,
		DiagonalLoad:    1e-6,
	}
	if ms.sc == nil || ms.sc.Rows() != len(kept) || ms.sc.ViewLen() != view {
		sc, err := music.NewStreamingCorrelation(len(kept), view, opts)
		if err != nil {
			return false
		}
		ms.sc = sc
	} else {
		ms.sc.Reset()
	}
	if ms.tracker == nil {
		tr, err := music.NewSubspaceTracker(cfg.MusicWindow, es.persons)
		if err != nil {
			return false
		}
		ms.tracker = tr
	} else {
		ms.tracker.Reset()
	}
	ms.roots.Reset()

	ms.kept = append(ms.kept[:0], kept...)
	if cap(ms.rows) < len(kept) {
		ms.rows = make([]musicRow, len(kept))
	}
	ms.rows = ms.rows[:len(kept)]
	for ri := range ms.rows {
		row := &ms.rows[ri]
		if bpTaps != nil {
			row.bp.init(bpTaps)
		}
		row.ma.init(2*maHalf + 1)
		row.center = firstCenter
	}
	ms.bpActive = bpTaps != nil
	ms.nDec = nDec
	ms.view = view
	ms.musicFs = fs / float64(cfg.MusicDecimate)
	ms.fed = 0
	ms.feed(calib, cfg.MusicDecimate, dSettle)
	ms.active = true
	return ms.sc.Ready()
}

// advance slides the DWT streams by one stride, re-anchoring on selection
// changes or grid jumps. Returns whether the streams can serve this stride.
func (ds *dwtStream) advance(cfg *Config, calib [][]float64, sel *SubcarrierSelection, fs float64, nDec, dSettle, slideDec int) bool {
	if sel == nil || sel.Selected < 0 || sel.Selected >= len(calib) {
		ds.active = false
		return false
	}
	fedWin := ds.fedAbs - (ds.offset + slideDec) // fed frontier in new window coords
	aligned := ds.active &&
		slideDec >= 0 &&
		nDec == ds.nDec &&
		sel.Selected == ds.selected &&
		fedWin >= 0 &&
		fedWin <= dSettle
	if !aligned {
		return ds.anchor(cfg, calib, sel.Selected, fs, nDec, dSettle)
	}
	// Coefficients already emitted stay valid — the samples did not change,
	// only the window origin moved by slideDec.
	ds.offset += slideDec
	ds.feed(calib[ds.selected], dSettle)
	return true
}

// anchor rebuilds the DWT streams for the selected subcarrier and feeds the
// settled prefix of the current window.
func (ds *dwtStream) anchor(cfg *Config, calib [][]float64, selected int, fs float64, nDec, dSettle int) bool {
	ds.active = false
	if cfg.UseSWT || fs <= 0 {
		return false
	}
	w, err := wavelet.Daubechies(cfg.WaveletOrder)
	if err != nil {
		return false
	}
	level := cfg.WaveletLevel
	if wavelet.MaxLevel(nDec, w.Len()) < level {
		// The exact path would clamp the level; keep incremental out of
		// that rare regime rather than mirroring the clamp.
		return false
	}
	if ds.main == nil || ds.main.Levels() != level || ds.nDec != nDec {
		ds.main, err = wavelet.NewStreamDec(w, level, nDec)
		if err != nil {
			return false
		}
		ds.resid, err = wavelet.NewStreamDec(w, level, nDec)
		if err != nil {
			return false
		}
	} else {
		ds.main.Reset()
		ds.resid.Reset()
	}

	// Streaming twin of suppressBreathingLeakage: the same high-pass FIR
	// applied twice, as a cascade of interior streaming convolutions.
	taps := 201
	if limit := nDec/3 | 1; limit < taps {
		taps = limit
	}
	ds.hpActive = false
	if taps >= 31 {
		if hp, err := dsp.HighPassFIR(cfg.HeartBandLow*0.92, fs, taps); err == nil {
			ds.hp1.init(hp.Taps)
			ds.hp2.init(hp.Taps)
			ds.hpActive = true
		}
	}

	if cap(ds.keep) < level {
		ds.keep = make([]bool, level)
	}
	ds.keep = ds.keep[:level]
	for i := range ds.keep {
		ds.keep[i] = false
	}
	if level >= 2 {
		ds.keep[level-2] = true
	}
	ds.keep[level-1] = true

	ds.selected = selected
	ds.level = level
	ds.nDec = nDec
	ds.offset = 0
	ds.fedAbs = 0
	ds.breathCache.reset()
	ds.heartCache.reset()
	ds.feed(calib[selected], dSettle)
	ds.active = true
	return true
}
