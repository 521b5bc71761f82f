package store

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"phasebeat/internal/core"
	"phasebeat/internal/metrics"
	"phasebeat/internal/trace"
)

// mkPacket builds a packet whose middle-subcarrier phase difference is
// phase — the observable waveSample extracts.
func mkPacket(t float64, ants, subs int, phase float64) trace.Packet {
	p := trace.NewPacket(t, ants, subs)
	for a := 0; a < ants; a++ {
		for s := 0; s < subs; s++ {
			p.CSI[a][s] = complex(1, 0)
		}
	}
	if ants >= 2 {
		mid := subs / 2
		p.CSI[0][mid] = complex(math.Cos(phase), math.Sin(phase))
	}
	return p
}

var testMeta = Meta{SampleRate: 10, NumAntennas: 2, NumSubcarriers: 4,
	WindowSeconds: 8, StrideSeconds: 2}

// fill appends n packets at 10 Hz starting at t0 with a slow phase sweep.
func fill(t *testing.T, s *Store, key string, t0 float64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		tm := t0 + float64(i)/testMeta.SampleRate
		if err := s.AppendPacket(key, mkPacket(tm, 2, 4, math.Sin(tm))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	s, err := Open(Config{Dir: dir, BlockSeconds: 1, TierSeconds: []float64{0.5, 2}, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.OpenSession("living/room", testMeta); err != nil {
		t.Fatal(err)
	}
	fill(t, s, "living/room", 0, 45) // 4.4 s @ 10 Hz → seals at 1.0s spans
	if err := s.AppendUpdate("living/room", core.Update{Time: 4.0, Result: &core.Result{
		Breathing: &core.BreathingEstimate{RateBPM: 15},
		Heart:     &core.HeartEstimate{RateBPM: 72},
	}}); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.Sessions != 1 || st.Blocks < 3 {
		t.Fatalf("stats = %+v, want 1 session, >=3 blocks", st)
	}
	if st.Bytes <= 0 {
		t.Fatalf("bytes gauge not tracking: %+v", st)
	}

	// Tier query over the full span touches no block files.
	res, err := s.Range("living/room", 0, 0, "2s")
	if err != nil {
		t.Fatal(err)
	}
	if res.BlocksRead != 0 {
		t.Fatalf("tier query read %d blocks", res.BlocksRead)
	}
	if len(res.Wave) != 3 { // 4.4 s of data in 2 s bins → starts 0, 2, 4
		t.Fatalf("wave bins = %d (%+v)", len(res.Wave), res.Wave)
	}
	if got := res.Wave[0].Count; got != 20 {
		t.Fatalf("bin 0 count = %d, want 20", got)
	}
	if len(res.Breathing) != 1 || res.Breathing[0].Last != 15 {
		t.Fatalf("breathing bins = %+v", res.Breathing)
	}
	if len(res.Heart) != 1 || res.Heart[0].Last != 72 {
		t.Fatalf("heart bins = %+v", res.Heart)
	}
	// The envelope is min/max-preserving: the sweep's extremes survive.
	if res.Wave[0].Min >= res.Wave[0].Max {
		t.Fatalf("bin envelope collapsed: %+v", res.Wave[0])
	}
	if hits := reg.Counter("store.tier.hits.2s").Value(); hits != 1 {
		t.Fatalf("tier.hits.2s = %d", hits)
	}

	// Raw query decodes exactly the overlapping blocks plus the tail.
	res, err = s.Range("living/room", 0, 0, RawTier)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 45 {
		t.Fatalf("raw samples = %d, want 45", len(res.Samples))
	}
	if res.BlocksRead == 0 {
		t.Fatal("raw query should have read blocks")
	}
	for i := 1; i < len(res.Samples); i++ {
		if res.Samples[i].T <= res.Samples[i-1].T {
			t.Fatalf("raw samples out of order at %d", i)
		}
	}

	// Sub-range raw query skips non-overlapping blocks.
	sub, err := s.Range("living/room", 1.05, 2.0, RawTier)
	if err != nil {
		t.Fatal(err)
	}
	if sub.BlocksRead >= res.BlocksRead {
		t.Fatalf("sub-range read %d blocks, full read %d", sub.BlocksRead, res.BlocksRead)
	}
	for _, smp := range sub.Samples {
		if smp.T < 1.05 || smp.T >= 2.0 {
			t.Fatalf("sample %v outside [1.05, 2)", smp.T)
		}
	}

	if bpm, ok := s.LastBPM("living/room"); !ok || bpm != 15 {
		t.Fatalf("LastBPM = %v, %v", bpm, ok)
	}

	infos := s.Sessions()
	if len(infos) != 1 || infos[0].Key != "living/room" || infos[0].LastBPM != 15 {
		t.Fatalf("sessions = %+v", infos)
	}
	if infos[0].From != 0 || infos[0].To < 4.3 {
		t.Fatalf("session span = [%v, %v]", infos[0].From, infos[0].To)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendPacket("living/room", mkPacket(9, 2, 4, 0)); err == nil {
		t.Fatal("append after Close succeeded")
	}
}

func TestStoreTierAutoPick(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), TierSeconds: []float64{1, 10, 60}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.OpenSession("k", testMeta); err != nil {
		t.Fatal(err)
	}
	fill(t, s, "k", 0, 20)
	for _, tc := range []struct {
		from, to float64
		want     string
	}{
		{0, 2, "1s"},     // short span: finest
		{0, 45, "10s"},   // 10s*4 fits, 60s*4 does not
		{0, 400, "60s"},  // long span: coarsest
		{100, 103, "1s"}, // empty result still picks by span
	} {
		res, err := s.Range("k", tc.from, tc.to, "")
		if err != nil {
			t.Fatalf("range [%v,%v): %v", tc.from, tc.to, err)
		}
		if res.Tier != tc.want {
			t.Errorf("span [%v,%v) picked %s, want %s", tc.from, tc.to, res.Tier, tc.want)
		}
	}
	if _, err := s.Range("k", 0, 10, "7s"); err == nil {
		t.Fatal("unknown tier accepted")
	}
	if _, err := s.Range("nope", 0, 10, ""); err == nil {
		t.Fatal("unknown session accepted")
	}
	if _, err := s.Range("k", 5, 5, ""); err == nil {
		t.Fatal("empty range accepted")
	}
}

func TestStoreAppendGuards(t *testing.T) {
	reg := metrics.NewRegistry()
	s, err := Open(Config{Dir: t.TempDir(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.OpenSession("k", testMeta); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendPacket("k", mkPacket(1, 2, 4, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendPacket("k", mkPacket(2, 3, 4, 0)); err == nil {
		t.Fatal("wrong antenna count accepted")
	}
	if err := s.AppendPacket("k", mkPacket(2, 2, 5, 0)); err == nil {
		t.Fatal("wrong subcarrier count accepted")
	}
	if err := s.AppendPacket("k", mkPacket(0.5, 2, 4, 0)); err == nil {
		t.Fatal("backwards time accepted")
	}
	if err := s.AppendPacket("k", mkPacket(math.NaN(), 2, 4, 0)); err == nil {
		t.Fatal("NaN time accepted")
	}
	if got := reg.Counter("store.append.rejected").Value(); got != 4 {
		t.Fatalf("append.rejected = %d, want 4", got)
	}
	if err := s.AppendPacket("unknown", mkPacket(3, 2, 4, 0)); err == nil {
		t.Fatal("unknown session accepted")
	}
	if err := s.OpenSession("", testMeta); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := s.OpenSession("bad", Meta{}); err == nil {
		t.Fatal("incomplete meta accepted")
	}
	if err := s.OpenSession("big", Meta{SampleRate: 1, NumAntennas: 99, NumSubcarriers: 4}); err == nil {
		t.Fatal("oversized shape accepted")
	}
}

// TestStoreRecovery simulates a kill: the store is abandoned without
// Close (tail flushed per append), then reopened.
func TestStoreRecovery(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	s, err := Open(Config{Dir: dir, BlockSeconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.OpenSession("k", testMeta); err != nil {
		t.Fatal(err)
	}
	fill(t, s, "k", 0, 27) // 2 sealed blocks + 5 tail packets
	before, err := s.Range("k", 0, 0, RawTier)
	if err != nil {
		t.Fatal(err)
	}
	// Abandoned, not closed: the OS file stays open but everything is
	// flushed, which is exactly the on-disk state after SIGKILL.

	s2, err := Open(Config{Dir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	after, err := s2.Range("k", 0, 0, RawTier)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Samples) != len(before.Samples) {
		t.Fatalf("recovered %d samples, had %d", len(after.Samples), len(before.Samples))
	}
	if got := reg.Counter("store.tail.recovered").Value(); got == 0 {
		t.Fatal("no tail packets recovered")
	}
	// Tier index must cover the tail-recovered span too.
	tres, err := s2.Range("k", 0, 0, "1s")
	if err != nil {
		t.Fatal(err)
	}
	var n uint32
	for _, b := range tres.Wave {
		n += b.Count
	}
	if int(n) != len(before.Samples) {
		t.Fatalf("tier bins cover %d samples, want %d", n, len(before.Samples))
	}

	// The recovered session accepts appends again after reopen.
	if err := s2.OpenSession("k", testMeta); err != nil {
		t.Fatal(err)
	}
	fill(t, s2, "k", 3.0, 5)
	res, err := s2.Range("k", 0, 0, RawTier)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != len(before.Samples)+5 {
		t.Fatalf("post-recovery samples = %d, want %d", len(res.Samples), len(before.Samples)+5)
	}
}

// TestStoreRecoveryTruncatedTail cuts the tail log mid-record — the
// artifact of a kill during a flush — and expects every complete record
// back, the torn one dropped.
func TestStoreRecoveryTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, BlockSeconds: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.OpenSession("k", testMeta); err != nil {
		t.Fatal(err)
	}
	fill(t, s, "k", 0, 10) // all in the tail, no seal

	tailPath := filepath.Join(dir, "k", "tail.pblog")
	data, err := os.ReadFile(tailPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tailPath, data[:len(data)-11], 0o644); err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	s2, err := Open(Config{Dir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	res, err := s2.Range("k", 0, 0, RawTier)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 9 {
		t.Fatalf("recovered %d samples from truncated tail, want 9", len(res.Samples))
	}
	if got := reg.Counter("store.tail.lost").Value(); got != 1 {
		t.Fatalf("tail.lost = %d, want 1", got)
	}
}

// TestStoreRecoveryCrashBeforeTailReset restores the on-disk state of a
// kill between a block's rename and the tail reset: the tail holds exactly
// the newest block's packets. Recovery must re-buffer none of them and
// lose none: the block's last packet (t = 14/30 s) must not be replayed
// twice.
func TestStoreRecoveryCrashBeforeTailReset(t *testing.T) {
	dir := t.TempDir()
	meta := Meta{SampleRate: 30, NumAntennas: 2, NumSubcarriers: 4}
	s, err := Open(Config{Dir: dir, BlockSeconds: 0.45})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.OpenSession("k", meta); err != nil {
		t.Fatal(err)
	}
	var pkts []trace.Packet
	for i := 0; i < 15; i++ { // the 15th packet seals block 0
		p := mkPacket(float64(i)/30, 2, 4, float64(i))
		pkts = append(pkts, p)
		if err := s.AppendPacket("k", p); err != nil {
			t.Fatal(err)
		}
	}
	tw, err := newTailWriter(filepath.Join(dir, "k", "tail.pblog"), 30, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		if err := tw.append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	res, err := s2.Range("k", 0, 0, RawTier)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != len(pkts) {
		t.Fatalf("recovered %d samples, want %d", len(res.Samples), len(pkts))
	}
	for i, smp := range res.Samples {
		if smp.T != pkts[i].Time {
			t.Fatalf("sample %d at t=%v, want %v", i, smp.T, pkts[i].Time)
		}
	}
}

// staleTierState runs a 30 Hz session with 0.45 s blocks through two
// seals (15 packets each, one estimate point before the first) and then
// puts back the tiers.bin of the first seal: the on-disk state of a kill
// after the second block's rename but before its tier index persist. With
// tailHoldsBlock the tail log still holds the second block's packets (a
// kill before the tail reset as well). It returns the store directory.
func staleTierState(t *testing.T, tailHoldsBlock bool) string {
	t.Helper()
	dir := t.TempDir()
	meta := Meta{SampleRate: 30, NumAntennas: 2, NumSubcarriers: 4}
	s, err := Open(Config{Dir: dir, BlockSeconds: 0.45})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.OpenSession("k", meta); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendUpdate("k", core.Update{Time: 0.2, Result: &core.Result{
		Breathing: &core.BreathingEstimate{RateBPM: 15},
	}}); err != nil {
		t.Fatal(err)
	}
	tiersPath := filepath.Join(dir, "k", "tiers.bin")
	var firstSeal []byte
	var second []trace.Packet
	for i := 0; i < 30; i++ { // packets 14 and 29 seal blocks 0 and 1
		p := mkPacket(float64(i)/30, 2, 4, float64(i))
		if i >= 15 {
			second = append(second, p)
		}
		if err := s.AppendPacket("k", p); err != nil {
			t.Fatal(err)
		}
		if i == 14 {
			if firstSeal, err = os.ReadFile(tiersPath); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := os.WriteFile(tiersPath, firstSeal, 0o644); err != nil {
		t.Fatal(err)
	}
	if tailHoldsBlock {
		tw, err := newTailWriter(filepath.Join(dir, "k", "tail.pblog"), 30, 2, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range second {
			if err := tw.append(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := tw.close(); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// checkRecoveredTiers reopens a store left by staleTierState and expects
// all 30 packets in the raw tier, all 30 in the 1 s waveform tier, and
// the estimate point kept.
func checkRecoveredTiers(t *testing.T, dir string) {
	t.Helper()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	raw, err := s.Range("k", 0, 0, RawTier)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw.Samples) != 30 {
		t.Fatalf("recovered %d raw samples, want 30", len(raw.Samples))
	}
	res, err := s.Range("k", 0, 0, "1s")
	if err != nil {
		t.Fatal(err)
	}
	var n uint32
	for _, b := range res.Wave {
		n += b.Count
	}
	if n != 30 {
		t.Fatalf("the 1 s tier covers %d samples, want 30", n)
	}
	if len(res.Breathing) != 1 || res.Breathing[0].Last != 15 {
		t.Fatalf("breathing tier %+v, want the one 15 bpm point", res.Breathing)
	}
}

// TestStoreRecoveryStaleTierIndex restores the crash state of a kill
// between a block's rename and the tier index persist, with the tail
// already reset and with it still holding the block: recovery must
// re-feed the waveform tiers from the block the index does not cover.
func TestStoreRecoveryStaleTierIndex(t *testing.T) {
	for _, tailHoldsBlock := range []bool{false, true} {
		t.Run(fmt.Sprintf("tail-holds-block=%v", tailHoldsBlock), func(t *testing.T) {
			checkRecoveredTiers(t, staleTierState(t, tailHoldsBlock))
		})
	}
}

// TestStoreRecoveryVersion1TierIndex rewrites the stale index of that
// crash state in the version-1 layout, which records no block seq:
// recovery rebuilds its waveform series from every block and keeps its
// estimate series.
func TestStoreRecoveryVersion1TierIndex(t *testing.T) {
	dir := staleTierState(t, false)
	tiersPath := filepath.Join(dir, "k", "tiers.bin")
	v2, err := os.ReadFile(tiersPath)
	if err != nil {
		t.Fatal(err)
	}
	v1 := append([]byte{}, v2[:len(v2)-8]...) // version 1 has no next seq
	v1[4], v1[5] = 1, 0
	if err := os.WriteFile(tiersPath, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	checkRecoveredTiers(t, dir)
}

// TestStoreReopenKeepsExactLastTime closes a session cleanly (its one
// block sealed, the tail empty) and reopens the store. The newest block's
// t1 is the session's last time and ends raw range queries, so it must be
// the last packet's exact time, not one truncated to whole microseconds:
// Range must return the packet at 14/30 s, and an append older than it
// must be refused. A legacy (µs) named block is read once for its exact
// times.
func TestStoreReopenKeepsExactLastTime(t *testing.T) {
	meta := Meta{SampleRate: 30, NumAntennas: 2, NumSubcarriers: 4}
	for _, legacy := range []bool{false, true} {
		dir := t.TempDir()
		s, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.OpenSession("k", meta); err != nil {
			t.Fatal(err)
		}
		const n = 15
		for i := 0; i < n; i++ {
			if err := s.AppendPacket("k", mkPacket(float64(i)/30, 2, 4, float64(i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.CloseSession("k"); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if legacy {
			last := 14.0 / 30
			blk := filepath.Join(dir, "k", blockName(0, 0, last))
			old := filepath.Join(dir, "k", fmt.Sprintf("blk-%08d-%015d-%015d.pbgz", 0, 0, int64(last*1e6)))
			if err := os.Rename(blk, old); err != nil {
				t.Fatal(err)
			}
		}

		s2, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s2.Range("k", 0, 0, RawTier)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Samples) != n {
			t.Fatalf("legacy name %v: reopened session has %d raw samples, want %d", legacy, len(res.Samples), n)
		}
		if err := s2.OpenSession("k", meta); err != nil {
			t.Fatal(err)
		}
		if err := s2.AppendPacket("k", mkPacket(14.0/30-1e-7, 2, 4, 0)); err == nil {
			t.Fatalf("legacy name %v: append 1e-7 s older than the last stored packet was accepted", legacy)
		}
		s2.Close()
	}
}

// TestStoreRecoveryCorruptTierIndex damages tiers.bin and expects the
// waveform tiers rebuilt from the sealed blocks.
func TestStoreRecoveryCorruptTierIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, BlockSeconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.OpenSession("k", testMeta); err != nil {
		t.Fatal(err)
	}
	fill(t, s, "k", 0, 22)
	if err := s.CloseSession("k"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "k", "tiers.bin"), []byte("PBTIgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	res, err := s2.Range("k", 0, 0, "1s")
	if err != nil {
		t.Fatal(err)
	}
	var n uint32
	for _, b := range res.Wave {
		n += b.Count
	}
	if n != 22 {
		t.Fatalf("rebuilt tiers cover %d samples, want 22", n)
	}
}

// TestStoreRecoveryTornSeal plants a .tmp block — a seal killed before
// rename — and expects it swept while the tail still replays the data.
func TestStoreRecoveryTornSeal(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, BlockSeconds: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.OpenSession("k", testMeta); err != nil {
		t.Fatal(err)
	}
	fill(t, s, "k", 0, 8)
	torn := filepath.Join(dir, "k", blockName(0, 0, 0.7)+".tmp")
	if err := os.WriteFile(torn, []byte("partial gzip"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatal("torn .tmp block survived recovery")
	}
	res, err := s2.Range("k", 0, 0, RawTier)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 8 {
		t.Fatalf("recovered %d samples, want 8", len(res.Samples))
	}
}

// TestStoreSealFailureKeepsPackets: a block seal that cannot create its
// file (here a directory squats on the block's .tmp path, which blocks
// the write even for root, unlike chmod) fails the append loudly but
// loses nothing — the packets stay buffered, no seal is counted, and the
// next append after the fault clears seals one block holding all of them.
func TestStoreSealFailureKeepsPackets(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	s, err := Open(Config{Dir: dir, BlockSeconds: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.OpenSession("k", testMeta); err != nil {
		t.Fatal(err)
	}
	fill(t, s, "k", 0, 10) // 0.0–0.9 s: one short of a 1 s block
	blocker := filepath.Join(dir, "k", blockName(0, 0, 1.0)+".tmp")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	err = s.AppendPacket("k", mkPacket(1.0, 2, 4, math.Sin(1.0)))
	if err == nil || !strings.Contains(err.Error(), "store: seal") {
		t.Fatalf("append over a blocked seal: err = %v, want a store: seal error", err)
	}
	seals := reg.Counter("store.seals")
	if got := seals.Value(); got != 0 {
		t.Fatalf("store.seals = %d after a failed seal", got)
	}
	ss := s.sessions["k"]
	if n := len(ss.buf); n != 11 {
		t.Fatalf("%d packets buffered after the failed seal, want 11", n)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendPacket("k", mkPacket(1.1, 2, 4, math.Sin(1.1))); err != nil {
		t.Fatalf("append after the fault cleared: %v", err)
	}
	if got := seals.Value(); got != 1 {
		t.Fatalf("store.seals = %d, want 1", got)
	}
	if len(ss.blocks) != 1 || ss.blocks[0].packets != 12 || len(ss.buf) != 0 {
		t.Fatalf("sealed %d blocks (first %+v), %d still buffered; want one block of 12",
			len(ss.blocks), ss.blocks, len(ss.buf))
	}
	res, err := s.Range("k", 0, 0, RawTier)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 12 {
		t.Fatalf("range read %d samples, want 12", len(res.Samples))
	}
	for i, smp := range res.Samples {
		if want := float64(i) / testMeta.SampleRate; math.Abs(smp.T-want) > 1e-9 {
			t.Fatalf("sample %d at t=%v, want %v", i, smp.T, want)
		}
	}
}

func TestStoreReadOnly(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, BlockSeconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.OpenSession("k", testMeta); err != nil {
		t.Fatal(err)
	}
	fill(t, s, "k", 0, 15)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	ro, err := Open(Config{Dir: dir, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := ro.OpenSession("k", testMeta); err == nil {
		t.Fatal("read-only OpenSession succeeded")
	}
	if err := ro.AppendPacket("k", mkPacket(99, 2, 4, 0)); err == nil {
		t.Fatal("read-only append succeeded")
	}
	res, err := ro.Range("k", 0, 0, RawTier)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 15 {
		t.Fatalf("read-only sees %d samples, want 15", len(res.Samples))
	}
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: filepath.Join(dir, "absent"), ReadOnly: true}); err == nil {
		t.Fatal("read-only open of a missing dir succeeded")
	}
}

func TestStoreReplayOrder(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), BlockSeconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.OpenSession("k", testMeta); err != nil {
		t.Fatal(err)
	}
	fill(t, s, "k", 0, 33)
	var times []float64
	if err := s.Replay("k", func(p trace.Packet) error {
		times = append(times, p.Time)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(times) != 33 {
		t.Fatalf("replayed %d packets, want 33", len(times))
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			t.Fatalf("replay out of order at %d: %v <= %v", i, times[i], times[i-1])
		}
	}
	wantErr := fmt.Errorf("stop")
	n := 0
	err = s.Replay("k", func(trace.Packet) error {
		if n++; n == 5 {
			return wantErr
		}
		return nil
	})
	if err != wantErr {
		t.Fatalf("replay error = %v, want stop", err)
	}
}

func TestTierCodecRoundTrip(t *testing.T) {
	ts := newTierSet([]float64{1, 10})
	for i := 0; i < 100; i++ {
		ts.add(seriesWave, float64(i)*0.1, math.Sin(float64(i)))
	}
	ts.add(seriesBreath, 5, 15.5)
	ts.add(seriesHeart, 5, 71)
	ts.next = 7
	var buf bytes.Buffer
	if err := writeTiers(&buf, ts); err != nil {
		t.Fatal(err)
	}
	got, err := readTiers(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.durs) != 2 || got.durs[0] != 1 || got.durs[1] != 10 {
		t.Fatalf("durs = %v", got.durs)
	}
	if got.next != 7 {
		t.Fatalf("next = %d, want 7", got.next)
	}
	for i := range ts.series {
		for w := 0; w < numSeries; w++ {
			a, b := ts.series[i][w].bins, got.series[i][w].bins
			if len(a) != len(b) {
				t.Fatalf("tier %d series %d: %d bins != %d", i, w, len(a), len(b))
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("tier %d series %d bin %d: %+v != %+v", i, w, j, a[j], b[j])
				}
			}
		}
	}
}

func TestTierCodecHostileInputs(t *testing.T) {
	valid := func() []byte {
		ts := newTierSet([]float64{1})
		ts.add(seriesWave, 0.5, 1)
		var buf bytes.Buffer
		if err := writeTiers(&buf, ts); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()
	cases := map[string][]byte{
		"empty":          {},
		"bad magic":      []byte("NOPE"),
		"truncated":      valid[:len(valid)-3],
		"trailing bytes": append(append([]byte{}, valid...), 0xFF),
		"huge bin count": func() []byte {
			b := append([]byte{}, valid...)
			// The first series count lives right after magic+version+
			// tierCount+duration.
			off := 4 + 2 + 1 + 8
			b[off], b[off+1], b[off+2], b[off+3] = 0xFF, 0xFF, 0xFF, 0xFF
			return b
		}(),
		"zero tiers": func() []byte {
			b := append([]byte{}, valid...)
			b[6] = 0
			return b
		}(),
	}
	for name, data := range cases {
		if _, err := readTiers(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestTailCodecRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tail.pblog")
	tw, err := newTailWriter(path, 25, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := tw.append(mkPacket(float64(i), 2, 3, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rate, pkts, partial, err := readTail(f)
	f.Close()
	if err != nil || partial {
		t.Fatalf("readTail: err=%v partial=%v", err, partial)
	}
	if rate != 25 || len(pkts) != 7 {
		t.Fatalf("rate=%v pkts=%d", rate, len(pkts))
	}
	for i, p := range pkts {
		if p.Time != float64(i) || len(p.CSI) != 2 || len(p.CSI[0]) != 3 {
			t.Fatalf("packet %d: %+v", i, p)
		}
	}
}

// TestTailLayoutGolden pins the PBTL byte layout: header, then one
// record per packet — time f64 and antenna-major (re, im) f64 cells.
func TestTailLayoutGolden(t *testing.T) {
	const want = "5042544c" + "0100" + "0000000000003940" + "0200" + "0300" + // magic, version, rate, shape
		"000000000000e03f" + // time
		"000000000000f03f0000000000000080000000000000f03f000000000000d0bf000000000000f03f000000000000e0bf000000000000004000000000000000800000000000000040000000000000d0bf0000000000000040000000000000e0bf"
	p := trace.NewPacket(0.5, 2, 3)
	for a := range p.CSI {
		for s := range p.CSI[a] {
			p.CSI[a][s] = complex(float64(a+1), -0.25*float64(s))
		}
	}
	path := filepath.Join(t.TempDir(), "tail.pblog")
	tw, err := newTailWriter(path, 25, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.append(p); err != nil {
		t.Fatal(err)
	}
	if err := tw.close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(raw); got != want {
		t.Fatalf("PBTL layout changed:\n got %s\nwant %s", got, want)
	}
}

func TestTailCodecHostileInputs(t *testing.T) {
	mk := func(mut func([]byte) []byte) []byte {
		dir := t.TempDir()
		path := filepath.Join(dir, "t")
		tw, err := newTailWriter(path, 10, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		tw.append(mkPacket(1, 1, 2, 0))
		tw.close()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return mut(data)
	}
	fatal := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("XXXXrest"),
		"bad shape": mk(func(b []byte) []byte {
			b[14], b[15] = 0xFF, 0xFF // antennas = 65535
			return b
		}),
		"short header": mk(func(b []byte) []byte { return b[:9] }),
	}
	for name, data := range fatal {
		if _, _, _, err := readTail(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A torn record is NOT an error — it is the expected crash artifact.
	torn := mk(func(b []byte) []byte { return b[:len(b)-5] })
	_, pkts, partial, err := readTail(bytes.NewReader(torn))
	if err != nil || !partial || len(pkts) != 0 {
		t.Fatalf("torn record: pkts=%d partial=%v err=%v", len(pkts), partial, err)
	}
}

func TestStoreHTTP(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), BlockSeconds: 1, TierSeconds: []float64{1, 10}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.OpenSession("room a", testMeta); err != nil {
		t.Fatal(err)
	}
	fill(t, s, "room a", 0, 25)
	mux := http.NewServeMux()
	s.RegisterHTTP(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		if _, err := io.Copy(&sb, resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, sb.String()
	}

	code, body := get("/store/sessions")
	if code != http.StatusOK {
		t.Fatalf("/store/sessions: %d %s", code, body)
	}
	var listing struct {
		Sessions []SessionInfo `json:"sessions"`
		Tiers    []string      `json:"tiers"`
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Sessions) != 1 || listing.Sessions[0].Key != "room a" {
		t.Fatalf("listing = %+v", listing)
	}
	if len(listing.Tiers) != 2 || listing.Tiers[1] != "10s" {
		t.Fatalf("tiers = %v", listing.Tiers)
	}

	code, body = get("/store/range?session=room+a&from=0&to=2&tier=1s")
	if code != http.StatusOK {
		t.Fatalf("/store/range: %d %s", code, body)
	}
	var res RangeResult
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	if res.Tier != "1s" || len(res.Wave) != 2 || res.BlocksRead != 0 {
		t.Fatalf("range = %+v", res)
	}

	for path, want := range map[string]int{
		"/store/range":                             http.StatusBadRequest,
		"/store/range?session=nope":                http.StatusNotFound,
		"/store/range?session=room+a&tier=9s":      http.StatusBadRequest,
		"/store/range?session=room+a&from=bogus":   http.StatusBadRequest,
		"/store/range?session=room+a&from=5&to=1":  http.StatusBadRequest,
		"/store/range?session=room+a&from=0&to=99": http.StatusOK,
	} {
		if code, body := get(path); code != want {
			t.Errorf("%s: %d (want %d): %s", path, code, want, body)
		}
	}
}
