package core

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"

	"phasebeat/internal/arena"
	"phasebeat/internal/dsp"
	"phasebeat/internal/trace"
)

// Block sums the incremental engine accumulates per subcarrier at ingest:
// the circular mean's numerator and denominator and the amplitude gate's
// two antenna sums.
const (
	accSin  = iota // sin of the wrapped phase difference
	accCos         // cos of the wrapped phase difference
	accAmpA        // |CSI| on antenna A
	accAmpB        // |CSI| on antenna B
	numAccs
)

// smoothMargin returns the per-edge sample margin M within which smoothed
// values depend on samples outside the window (and therefore differ from
// their interior, "settled" values). A smoothed sample at index i reads
// detrended samples in [i-sh, i+sh] with sh = SmoothWindow/2; a detrended
// sample reads the strided trend, whose interpolated value at j depends on
// anchor medians covering roughly [j - TrendWindow/2 - trendStride,
// j + TrendWindow/2 + trendStride]. The +4 is slack for the anchor grid's
// clamped first/last anchors.
func smoothMargin(cfg *Config) int {
	return cfg.TrendWindow/2 + trendStride + cfg.SmoothWindow/2 + 4
}

// subScratch is the per-worker scratch of the stride loop, pooled so the
// parallel per-subcarrier fan-out stays allocation-free.
type subScratch struct {
	series []float64 // linearized wrapped diff, clobbered by rotation
	unwrap []float64 // unwrapped window series
	sc     smoothScratch
}

// scratchPool is shared by every engine rather than held by each: a used
// sync.Pool stays registered with the runtime until two collections pass,
// so a pool inside the engine would pin the whole engine — its window
// slabs and a batch run's trace — that long after the engine is dropped.
var scratchPool = sync.Pool{New: func() any { return &subScratch{} }}

// pushVerdict is the quarantine outcome of offering one packet to the
// stride engine. Anything but pushAccepted means the packet was rejected
// before touching the ring caches.
type pushVerdict int

const (
	// pushAccepted: the packet passed quarantine and entered the window.
	pushAccepted pushVerdict = iota
	// pushMalformed: antenna or subcarrier counts differ from the engine's.
	pushMalformed
	// pushNonFinite: a CSI cell held a NaN or Inf component.
	pushNonFinite
	// pushNonMonotonic: the timestamp ran backwards.
	pushNonMonotonic
)

// maxGapSeconds is the timestamp-gap threshold of the gap-degradation
// path at sampleRate: one second, but never fewer than twenty packet
// intervals.
func maxGapSeconds(sampleRate float64) float64 {
	return math.Max(1, 20/sampleRate)
}

// strideEngine is the pipeline's one front end: phase-difference
// extraction, Hampel calibration and the amplitude gate over a columnar
// ring (internal/arena) of wrapped phase differences, one contiguous
// column per subcarrier. A Monitor slides it over a stream, so each
// stride reprocesses only the new tail plus the smoothing edge margin,
// reading sequential memory throughout; Processor.Process runs it once
// with window = stride = the whole trace, so a batch run is the engine's
// first stride.
//
// Exactness: the wrapped difference is computed with the expression of
// ExtractPhaseDifference, and its sin/cos and the per-antenna amplitudes
// go straight into exact block sums (dsp.ExactSum) instead of being
// stored. dsp.Circular and AmplitudeGate sum with the same exact type, so
// a stride's merged block sums round to the very bits those references
// compute over the same window, in any order. Smoothed samples in the
// settled interior [M, n-M) are mathematically identical across
// overlapping windows (the detrend cancels the per-window unwrap anchor),
// so they are kept from the previous stride, shifted left in place by the
// slide, rather than recomputed; only floating-point ulp drift of the
// cancelled constant distinguishes them from a from-scratch run over the
// same window. See DESIGN.md, "Incremental smoothing" and §12 "Columnar
// memory layout".
type strideEngine struct {
	proc *Processor

	// arena backs every slab the engine owns (nil = unpooled); release()
	// returns them so fleet sessions sharing one arena recycle window
	// storage across Monitor lifetimes.
	arena *arena.Arena

	sampleRate float64

	window, stride int
	margin         int
	nAnt, nSub     int

	pos       int // total accepted packets (mirrors the ring head)
	sinceLast int // packets since the last processed window

	// lastTime is the newest accepted timestamp (-Inf before the first
	// packet); maxGap is the timestamp-gap threshold beyond which the
	// window is re-anchored instead of spliced.
	lastTime float64
	maxGap   float64

	// ring holds the wrapped phase difference (nSub channels, capacity
	// exactly one window) — the one per-sample quantity the cumulative
	// unwrap needs; diff caches its column headers, indexed
	// [subcarrier][slot].
	ring *arena.Ring
	diff [][]float64

	// sums holds the exact block sums, indexed
	// [(block*nSub + subcarrier)*numAccs + acc]. A block is blockLen =
	// gcd(window, stride) packets counted from the (re-)anchor. Strides
	// fire every stride packets once the window is full, so every window
	// starts and ends on a block boundary and covers exactly the newest
	// nBlocks = window/blockLen blocks: sums is a ring of those, block is
	// the slot being filled and inBlock its packet count.
	sums              []dsp.ExactSum
	blockLen, nBlocks int
	block, inBlock    int

	// smoothed holds the per-subcarrier smoothed windows, updated in place
	// each stride: the settled interior shifts left by the slide and only
	// the edges are recomputed.
	smoothedM    *arena.Matrix
	smoothed     [][]float64
	haveSmoothed bool
	prevPos      int // pos at which smoothed was last fully valid

	weaker []float64

	// rec is the current stride's observation record, set by the caller
	// before each process call; nil when nothing observes the run.
	rec *StrideRecord
	// wantEvidence is latched per stride when a Sink is configured;
	// trendAbs then accumulates each subcarrier's summed
	// |unwrapped − smoothed| for the calibration evidence.
	wantEvidence bool
	trendAbs     []float64

	// lastSmoothedSamples is per-subcarrier telemetry: how many samples the
	// last stride actually smoothed (the window length when it could not
	// reuse the previous stride's smoothed interior).
	lastSmoothedSamples int
}

// newStrideEngine sizes an engine for packets of antennas × subcarriers
// cells at sampleRate Hz: a window-packet ring processed every stride
// packets, its slabs carved from ar (nil = unpooled). The geometry must
// already be checked (MonitorConfig.check, or a batch trace's own
// length).
func newStrideEngine(proc *Processor, antennas, subcarriers, window, stride int, sampleRate float64, ar *arena.Arena) *strideEngine {
	e := &strideEngine{
		proc:       proc,
		arena:      ar,
		sampleRate: sampleRate,
		window:     window,
		stride:     stride,
		margin:     smoothMargin(&proc.cfg),
		nAnt:       antennas,
		nSub:       subcarriers,
		lastTime:   math.Inf(-1),
		maxGap:     maxGapSeconds(sampleRate),
	}
	e.ring = arena.NewFloatRing(e.arena, e.nSub, window)
	e.diff = e.ring.Columns()
	e.blockLen = gcd(window, stride)
	e.nBlocks = window / e.blockLen
	e.sums = make([]dsp.ExactSum, e.nBlocks*e.nSub*numAccs)
	e.smoothedM = arena.NewMatrix(e.arena, e.nSub, window)
	e.smoothed = e.smoothedM.Rows()
	e.weaker = make([]float64, e.nSub)
	return e
}

// release returns every slab the engine owns to its arena. The engine (and
// any column view into it) is dead afterwards; the Monitor calls this when
// the worker exits, which is what lets fleet sessions sharing one arena
// recycle window storage across Monitor lifetimes.
func (e *strideEngine) release() {
	e.ring.Release(e.arena)
	e.smoothedM.Release(e.arena)
	e.diff, e.sums, e.smoothed = nil, nil, nil
}

// push is the stream's quarantine in front of write. Packets that fail it
// (wrong shape, non-finite CSI, backwards timestamp) are rejected with a
// verdict naming the cause and never touch the caches; an accepted packet
// whose timestamp gaps past maxGap re-anchors the window first (gapReset
// true) instead of splicing discontinuous data. It allocates nothing.
func (e *strideEngine) push(p trace.Packet) (verdict pushVerdict, gapReset bool) {
	if v := e.screen(p); v != pushAccepted {
		return v, false
	}
	if p.Time < e.lastTime {
		return pushNonMonotonic, false
	}
	if p.Time-e.lastTime > e.maxGap {
		// math.Inf(-1) as lastTime makes the first packet's gap +Inf, but
		// an empty window has nothing to splice — skip the reset then.
		if e.pos > 0 {
			e.resetWindow()
			gapReset = true
		}
	}
	e.lastTime = p.Time
	e.write(p)
	return pushAccepted, gapReset
}

// screen checks a packet's cells: pushMalformed when its antenna or
// subcarrier counts differ from the engine's, pushNonFinite when a cell
// holds a NaN or Inf component, else pushAccepted. The stream quarantines
// on the verdict; a batch run fails on it.
func (e *strideEngine) screen(p trace.Packet) pushVerdict {
	if len(p.CSI) != e.nAnt {
		return pushMalformed
	}
	for _, row := range p.CSI {
		if len(row) != e.nSub {
			return pushMalformed
		}
	}
	if !packetFinite(p) {
		return pushNonFinite
	}
	return pushAccepted
}

// write admits one screened packet: its wrapped phase differences go into
// the ring and their sin/cos and the two antennas' amplitudes into the
// current block's exact sums. It allocates nothing.
func (e *strideEngine) write(p trace.Packet) {
	slot := e.ring.Slot()
	rowA, rowB := p.CSI[AntennaA], p.CSI[AntennaB]
	sums := e.sums[e.block*e.nSub*numAccs:][:e.nSub*numAccs]
	if e.inBlock == 0 {
		clear(sums)
	}
	for s := 0; s < e.nSub; s++ {
		ca, cb := rowA[s], rowB[s]
		// The expressions of ExtractPhaseDifference and AmplitudeGate —
		// bit-identical inputs to the same exact sums.
		d := dsp.WrapPhase(cmplx.Phase(ca) - cmplx.Phase(cb))
		e.diff[s][slot] = d
		acc := sums[s*numAccs:][:numAccs]
		sin, cos := math.Sincos(d)
		acc[accSin].Add(sin)
		acc[accCos].Add(cos)
		acc[accAmpA].Add(cmplx.Abs(ca))
		acc[accAmpB].Add(cmplx.Abs(cb))
	}
	e.ring.Advance()
	if e.inBlock++; e.inBlock == e.blockLen {
		e.inBlock = 0
		if e.block++; e.block == e.nBlocks {
			e.block = 0
		}
	}
	e.pos++
	e.sinceLast++
}

// packetFinite reports whether every CSI component of the packet is
// finite. NaN or Inf cells would otherwise poison the ring caches: a
// single NaN survives every downstream median and FFT into the estimate.
func packetFinite(p trace.Packet) bool {
	for _, row := range p.CSI {
		for _, c := range row {
			re, im := real(c), imag(c)
			// IsNaN and IsInf inlined as arithmetic: x != x catches NaN,
			// the subtraction catches ±Inf.
			if re != re || im != im || re-re != 0 || im-im != 0 {
				return false
			}
		}
	}
	return true
}

// resetWindow discards the buffered window so the next packet starts a
// fresh one — the gap-degradation path. Ring and accumulator storage is
// retained; the absolute indexing restarting at zero means no stale slot
// is ever read before being rewritten (ready requires a full window of new
// packets, and each block's sums are cleared as the block starts).
func (e *strideEngine) resetWindow() {
	e.pos = 0
	e.sinceLast = 0
	e.haveSmoothed = false
	e.prevPos = 0
	e.ring.Reset()
	e.block, e.inBlock = 0, 0
}

// ready reports whether a full window is buffered and at least one stride of
// new packets arrived since the last processed window.
func (e *strideEngine) ready() bool {
	return e.pos >= e.window && e.sinceLast >= e.stride
}

// process runs the pipeline over the current window: extraction and
// smoothing from the ring caches and the gate from the block sums, then
// the shared downstream stages. Like Process it always returns a non-nil,
// possibly partial Result.
func (e *strideEngine) process() (*Result, error) {
	slide := e.sinceLast
	e.sinceLast = 0
	st := &pipelineState{proc: e.proc, sampleRate: e.sampleRate, rec: e.rec, res: &Result{}}
	eligible, err := e.strideSmooth(slide)
	if err != nil {
		return st.res, err
	}
	st.smoothed, st.eligible = e.smoothed, eligible
	st.gateFallback, st.rejected = gateStats(eligible)
	return st.res, e.proc.runStages(st, stages)
}

// strideSmooth is the engine-owned prefix of a stride: extraction and
// smoothing from the columnar rings plus the amplitude gate from the
// block sums, whose fresh eligibility mask it returns (the Result keeps
// it, so it must not be reused by the next stride). When the previous
// stride's smoothed matrix is reusable (window slid by a multiple of
// trendStride and the window comfortably exceeds twice the margin plus
// the slide), only the head margin and the new tail are smoothed;
// otherwise every subcarrier is smoothed in full from the ring caches. It
// is split from process so the allocation guards can measure the
// columnar engine in isolation from the stages downstream.
func (e *strideEngine) strideSmooth(slide int) ([]bool, error) {
	n := e.window
	proc, rec := e.proc, e.rec
	pcfg := &proc.cfg
	e.wantEvidence = rec != nil && pcfg.Sink != nil
	if e.wantEvidence && e.trendAbs == nil {
		e.trendAbs = make([]float64, e.nSub)
	}
	reuse := e.haveSmoothed &&
		e.prevPos+slide == e.pos &&
		slide%trendStride == 0 &&
		n > 2*e.margin+slide
	if reuse {
		e.lastSmoothedSamples = 2*e.margin + slide
	} else {
		e.lastSmoothedSamples = n
	}
	// The window is the newest n samples by absolute index; ring views
	// linearize it oldest-first without copying.
	wstart := e.ring.Head() - int64(n)

	// The ring-cache loop fuses the unwrap and smoothing; it is recorded
	// as the smoothing stage, with a note counting the samples actually
	// smoothed (all of them on a batch run). The fan-out splits on
	// contiguous subcarrier ranges: adjacent subcarriers are adjacent
	// columns of the slab, so each worker streams its own contiguous span,
	// with one pooled scratch per range.
	t0 := proc.beginStage(rec, StageSmooth)
	err := parallelChunks(e.nSub, pcfg.Parallelism, func(lo, hi int) error {
		ss := scratchPool.Get().(*subScratch)
		defer scratchPool.Put(ss)
		for s := lo; s < hi; s++ {
			if err := e.strideSubcarrier(s, slide, wstart, reuse, ss); err != nil {
				return fmt.Errorf("subcarrier %d: %w", s, err)
			}
		}
		return nil
	})
	if proc.observed(rec) {
		var ev any
		if e.wantEvidence && err == nil {
			var sum float64
			for _, v := range e.trendAbs {
				sum += v
			}
			ev = &CalibrationEvidence{TrendMagnitude: sum / float64(e.nSub*n)}
		}
		proc.endStage(rec, t0, StageStats{
			Stage:       StageSmooth,
			Samples:     e.lastSmoothedSamples,
			Subcarriers: e.nSub,
			Note:        fmt.Sprintf("unwrap+smooth: %d of %d samples smoothed", e.lastSmoothedSamples, n),
			Evidence:    ev,
			Err:         err,
		})
	}
	if err != nil {
		// Some rows may be half-updated in place. prevPos stays at the last
		// good stride, so the next stride's prevPos+slide == pos check fails
		// and it re-smooths every subcarrier in full.
		return nil, &StageError{Stage: StageSmooth, Err: err}
	}
	e.haveSmoothed = true
	e.prevPos = e.pos

	// AmplitudeGate from the exact block sums: they round to its sums bit
	// for bit, so the discrete decision agrees.
	t0 = proc.beginStage(rec, StageGate)
	med := dsp.Median(e.weaker)
	eligible := make([]bool, e.nSub)
	rejected := 0
	for s, w := range e.weaker {
		eligible[s] = w >= amplitudeGateFraction*med
		if !eligible[s] {
			rejected++
		}
	}
	if proc.observed(rec) {
		var note string
		if rejected > 0 {
			note = fmt.Sprintf("gate rejected %d/%d subcarriers", rejected, e.nSub)
		}
		var ev any
		if e.wantEvidence {
			fallback, _ := gateStats(eligible)
			ev = &GateEvidence{Fallback: fallback, Rejected: rejected, Total: e.nSub}
		}
		proc.endStage(rec, t0, StageStats{
			Stage:       StageGate,
			Samples:     n,
			Subcarriers: e.nSub,
			Note:        note,
			Evidence:    ev,
		})
	}
	return eligible, nil
}

// strideSubcarrier updates one subcarrier for the current stride: circular
// mean and amplitude sums merged from the window's blocks, rotation +
// unwrap over a zero-copy window view, and either a ranged or a full
// smoothing pass into e.smoothed[s].
func (e *strideEngine) strideSubcarrier(s, slide int, wstart int64, reuse bool, ss *subScratch) error {
	n := e.window
	pcfg := &e.proc.cfg

	acc := e.windowSums(s)
	e.weaker[s] = math.Min(acc[accAmpA].Float64(), acc[accAmpB].Float64()) / float64(n)
	mean := math.Atan2(acc[accSin].Float64(), acc[accCos].Float64())

	// Linearize the wrapped diff into scratch (the one copy smoothing
	// needs: rotation clobbers its input), rotate onto the mean, unwrap.
	dv, err := e.ring.View(s, wstart, n)
	if err != nil {
		return err
	}
	if cap(ss.series) < n {
		ss.series = make([]float64, n)
	}
	series := ss.series[:n]
	dv.CopyTo(series)
	ss.unwrap = unwrapAboutMean(series, mean, ss.unwrap)

	row := e.smoothed[s]
	if !reuse {
		if _, err := smoothRangeInto(row[:0], ss.unwrap, pcfg, 0, n, &ss.sc); err != nil {
			return err
		}
		e.accumTrend(s, ss.unwrap)
		return nil
	}

	m := e.margin
	lo := n - slide - m
	// Settled interior: identical to the previous stride's values shifted
	// left by the slide (both windows' dependency spans lie fully inside
	// the data). copy is memmove-safe for the overlapping shift, and it
	// must run first: the tail written below overlaps its source.
	copy(row[m:lo], row[m+slide:n-m])
	// Head margin: edge-truncated values, recomputed every stride.
	if _, err := smoothRangeInto(row[:0], ss.unwrap, pcfg, 0, m, &ss.sc); err != nil {
		return err
	}
	// New tail plus trailing margin.
	if _, err := smoothRangeInto(row[lo:lo], ss.unwrap, pcfg, lo, n, &ss.sc); err != nil {
		return err
	}
	e.accumTrend(s, ss.unwrap)
	return nil
}

// windowSums merges subcarrier s's block sums over the window. The window
// is exactly the ring's blocks at a stride, and merge order does not
// matter to an exact sum.
func (e *strideEngine) windowSums(s int) (acc [numAccs]dsp.ExactSum) {
	for b := 0; b < e.nBlocks; b++ {
		blk := e.sums[(b*e.nSub+s)*numAccs:][:numAccs]
		for k := range acc {
			acc[k].Merge(&blk[k])
		}
	}
	return acc
}

// accumTrend records subcarrier s's summed |unwrapped − smoothed| into
// trendAbs for the stride's calibration evidence. Evidence-path only: the
// benchmark operating point (no sink) never executes the loop.
func (e *strideEngine) accumTrend(s int, unwrap []float64) {
	if !e.wantEvidence {
		return
	}
	var sum float64
	row := e.smoothed[s]
	for i := range unwrap {
		sum += math.Abs(unwrap[i] - row[i])
	}
	e.trendAbs[s] = sum
}
