package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
)

// The downsample tiers are the store's cheap long-range query path: for
// every session, three fixed-resolution summaries of the breathing
// waveform and the estimate history are maintained alongside the sealed
// raw blocks. Each tier is a run of time-aligned bins; each bin keeps the
// min/max envelope plus the first/last values of everything that landed
// in it — the min/max-preserving decimation idiom (golpm
// DownsampleSamples, goldmine DownSample), which keeps breathing peaks
// visible at any zoom level where a plain stride-decimation would alias
// them away.
//
// Bins accumulate incrementally on every append and are persisted to
// tiers.bin (atomic tmp+rename) at block-seal time, after the block's
// rename. The index records the seq after the newest block its waveform
// series cover, so recovery after a kill between the rename and the
// persist re-feeds the waveform tiers from every newer block instead of
// trusting a stale index.

// TierBin is one downsample bin: the min/max-preserving summary of every
// sample whose timestamp fell in [Start, Start+duration).
type TierBin struct {
	// Start is the bin's start time (trace seconds, aligned to the tier
	// duration).
	Start float64 `json:"start"`
	// Count is the number of samples accumulated into the bin.
	Count uint32 `json:"count"`
	// Min and Max are the bin's value envelope; First and Last the
	// boundary values, so adjacent bins can be joined without gaps.
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	First float64 `json:"first"`
	Last  float64 `json:"last"`
}

// add folds one sample into the bin.
func (b *TierBin) add(v float64) {
	if b.Count == 0 {
		*b = TierBin{Start: b.Start, Count: 1, Min: v, Max: v, First: v, Last: v}
		return
	}
	b.Count++
	if v < b.Min {
		b.Min = v
	}
	if v > b.Max {
		b.Max = v
	}
	b.Last = v
}

// series is one downsampled signal at one tier resolution: bins in
// ascending Start order.
type series struct {
	bins []TierBin
}

// add routes a timestamped sample into its bin. Samples arrive in time
// order from the append path; anything that lands before the newest bin
// (clock jitter around a bin boundary) is folded into the newest bin
// rather than opening the past back up.
func (se *series) add(dur, t, v float64) {
	start := math.Floor(t/dur) * dur
	if n := len(se.bins); n > 0 && start <= se.bins[n-1].Start {
		se.bins[n-1].add(v)
		return
	}
	se.bins = append(se.bins, TierBin{Start: start})
	se.bins[len(se.bins)-1].add(v)
}

// trim drops bins that end at or before cutoff — the tier-index side of
// block eviction, so tiers never describe time ranges with no retained
// raw data behind them.
func (se *series) trim(dur, cutoff float64) {
	i := 0
	for i < len(se.bins) && se.bins[i].Start+dur <= cutoff {
		i++
	}
	if i > 0 {
		se.bins = append(se.bins[:0], se.bins[i:]...)
	}
}

// query returns the bins overlapping [from, to).
func (se *series) query(dur, from, to float64) []TierBin {
	lo := sort.Search(len(se.bins), func(i int) bool { return se.bins[i].Start+dur > from })
	hi := sort.Search(len(se.bins), func(i int) bool { return se.bins[i].Start >= to })
	if lo >= hi {
		return nil
	}
	out := make([]TierBin, hi-lo)
	copy(out, se.bins[lo:hi])
	return out
}

// The three series every tier tracks.
const (
	seriesWave = iota // per-packet breathing-waveform observable
	seriesBreath
	seriesHeart
	numSeries
)

// tierSet is one session's full downsample state: numSeries series at
// each configured resolution.
type tierSet struct {
	durs   []float64
	series [][numSeries]series // one entry per tier
	// next is the per-session seq after the newest sealed block whose
	// packets the waveform series include.
	next uint64
}

func newTierSet(durs []float64) *tierSet {
	return &tierSet{durs: durs, series: make([][numSeries]series, len(durs))}
}

func (ts *tierSet) add(which int, t, v float64) {
	for i, dur := range ts.durs {
		ts.series[i][which].add(dur, t, v)
	}
}

func (ts *tierSet) trim(cutoff float64) {
	for i, dur := range ts.durs {
		for w := 0; w < numSeries; w++ {
			ts.series[i][w].trim(dur, cutoff)
		}
	}
}

// lastBreath returns the most recent breathing estimate folded into the
// finest tier.
func (ts *tierSet) lastBreath() (float64, bool) {
	if len(ts.series) == 0 {
		return 0, false
	}
	bins := ts.series[0][seriesBreath].bins
	if len(bins) == 0 {
		return 0, false
	}
	return bins[len(bins)-1].Last, true
}

// TierLabel formats a tier duration the way the query API names it:
// "1s", "10s", "60s", "0.5s".
func TierLabel(dur float64) string { return fmt.Sprintf("%gs", dur) }

// tiers.bin binary format:
//
//	magic "PBTI" | uint16 version | uint8 tierCount |
//	tiers: float64 duration, then numSeries × (uint32 binCount, bins) |
//	uint64 next (version 2 only)
//	bin: float64 start, uint32 count, float64 min, max, first, last
//
// A version-1 file does not say which blocks its waveform series cover:
// readTiers keeps its estimate series and drops its waveform series with
// next = 0, so recovery rebuilds them from every block.
const (
	tierMagic   = "PBTI"
	tierVersion = 2
	// maxTiers bounds the tier count a (possibly corrupt) index file can
	// declare.
	maxTiers = 8
	// tierPreallocBytes bounds how much bin storage readTiers reserves up
	// front on the strength of an untrusted count, mirroring trace.Read.
	tierPreallocBytes = 1 << 20
	binEncodedSize    = 8 + 4 + 4*8
)

// ErrBadTierIndex reports a malformed or truncated tiers.bin.
var ErrBadTierIndex = errors.New("store: bad tier index")

// writeTiers encodes the tier set.
func writeTiers(w io.Writer, ts *tierSet) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(tierMagic); err != nil {
		return err
	}
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], tierVersion)
	if _, err := bw.Write(u16[:]); err != nil {
		return err
	}
	if err := bw.WriteByte(byte(len(ts.durs))); err != nil {
		return err
	}
	var buf [8]byte
	writeF64 := func(v float64) error {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		_, err := bw.Write(buf[:])
		return err
	}
	writeU32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(buf[:4], v)
		_, err := bw.Write(buf[:4])
		return err
	}
	for i, dur := range ts.durs {
		if err := writeF64(dur); err != nil {
			return err
		}
		for w := 0; w < numSeries; w++ {
			bins := ts.series[i][w].bins
			if err := writeU32(uint32(len(bins))); err != nil {
				return err
			}
			for _, b := range bins {
				if err := writeF64(b.Start); err != nil {
					return err
				}
				if err := writeU32(b.Count); err != nil {
					return err
				}
				for _, v := range [4]float64{b.Min, b.Max, b.First, b.Last} {
					if err := writeF64(v); err != nil {
						return err
					}
				}
			}
		}
	}
	binary.LittleEndian.PutUint64(buf[:], ts.next)
	if _, err := bw.Write(buf[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// readTiers decodes a tier set written by writeTiers. Every declared
// count is treated as untrusted: tier count is hard-bounded and bin
// preallocation is capped by a byte budget, so a corrupt index cannot
// make recovery reserve gigabytes.
func readTiers(r io.Reader) (*tierSet, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(tierMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: magic: %v", ErrBadTierIndex, err)
	}
	if string(magic) != tierMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadTierIndex, magic)
	}
	var u16 [2]byte
	if _, err := io.ReadFull(br, u16[:]); err != nil {
		return nil, fmt.Errorf("%w: version: %v", ErrBadTierIndex, err)
	}
	version := binary.LittleEndian.Uint16(u16[:])
	if version != 1 && version != tierVersion {
		return nil, fmt.Errorf("%w: version %d (supported: 1, %d)", ErrBadTierIndex, version, tierVersion)
	}
	nTiers, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("%w: tier count: %v", ErrBadTierIndex, err)
	}
	if nTiers == 0 || nTiers > maxTiers {
		return nil, fmt.Errorf("%w: %d tiers outside (0, %d]", ErrBadTierIndex, nTiers, maxTiers)
	}
	var buf [8]byte
	readF64 := func() (float64, error) {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return 0, err
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(buf[:])), nil
	}
	readU32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, buf[:4]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(buf[:4]), nil
	}
	ts := &tierSet{series: make([][numSeries]series, nTiers)}
	lastDur := 0.0
	for i := 0; i < int(nTiers); i++ {
		dur, err := readF64()
		if err != nil {
			return nil, fmt.Errorf("%w: tier %d duration: %v", ErrBadTierIndex, i, err)
		}
		if !(dur > 0) || math.IsInf(dur, 0) || dur <= lastDur {
			return nil, fmt.Errorf("%w: tier durations must ascend and be finite (got %v after %v)",
				ErrBadTierIndex, dur, lastDur)
		}
		lastDur = dur
		ts.durs = append(ts.durs, dur)
		for w := 0; w < numSeries; w++ {
			n, err := readU32()
			if err != nil {
				return nil, fmt.Errorf("%w: tier %d series %d count: %v", ErrBadTierIndex, i, w, err)
			}
			prealloc := int64(n)
			if budget := int64(tierPreallocBytes / binEncodedSize); prealloc > budget {
				prealloc = budget
			}
			bins := make([]TierBin, 0, prealloc)
			lastStart := math.Inf(-1)
			for j := uint32(0); j < n; j++ {
				var b TierBin
				if b.Start, err = readF64(); err != nil {
					return nil, fmt.Errorf("%w: tier %d bin %d: %v", ErrBadTierIndex, i, j, err)
				}
				if b.Count, err = readU32(); err != nil {
					return nil, fmt.Errorf("%w: tier %d bin %d: %v", ErrBadTierIndex, i, j, err)
				}
				for _, f := range [4]*float64{&b.Min, &b.Max, &b.First, &b.Last} {
					if *f, err = readF64(); err != nil {
						return nil, fmt.Errorf("%w: tier %d bin %d: %v", ErrBadTierIndex, i, j, err)
					}
				}
				if math.IsNaN(b.Start) || b.Start <= lastStart {
					return nil, fmt.Errorf("%w: tier %d bin %d start %v not ascending", ErrBadTierIndex, i, j, b.Start)
				}
				lastStart = b.Start
				bins = append(bins, b)
			}
			ts.series[i][w].bins = bins
		}
	}
	if version == 1 {
		for i := range ts.series {
			ts.series[i][seriesWave].bins = nil
		}
	} else {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("%w: next seq: %v", ErrBadTierIndex, err)
		}
		ts.next = binary.LittleEndian.Uint64(buf[:])
	}
	// A trailing garbage run means the file was not produced by
	// writeTiers; reject rather than silently ignore.
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing bytes", ErrBadTierIndex)
	}
	return ts, nil
}
