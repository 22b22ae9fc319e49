package iclab

import (
	"fmt"
	"reflect"
	"testing"
)

func TestDaySeedDistinctAndStable(t *testing.T) {
	const base = 0xdeadbeef
	seen := map[uint64]int{}
	for day := 0; day < 4096; day++ {
		s := DaySeed(base, day)
		if prev, dup := seen[s]; dup {
			t.Fatalf("DaySeed collision: days %d and %d both map to %#x", prev, day, s)
		}
		seen[s] = day
		if s != DaySeed(base, day) {
			t.Fatalf("DaySeed not stable for day %d", day)
		}
	}
	// Different bases must decorrelate even at the same day index.
	if DaySeed(1, 0) == DaySeed(2, 0) {
		t.Error("distinct bases share day-0 seed")
	}
	// Nearby seeds should not produce shifted copies of the same schedule.
	if DaySeed(1, 1) == DaySeed(2, 0) {
		t.Error("seed/day lattice aliases: (1,1) == (2,0)")
	}
}

func TestMergeShardsOrderAndIDs(t *testing.T) {
	shards := [][]Record{
		{{URL: "day0-a"}, {URL: "day0-b"}},
		nil, // an empty day must not disturb the sequence
		{{URL: "day2-a"}},
	}
	merged := MergeShards(shards)
	wantURLs := []string{"day0-a", "day0-b", "day2-a"}
	if len(merged) != len(wantURLs) {
		t.Fatalf("merged %d records, want %d", len(merged), len(wantURLs))
	}
	for i, want := range wantURLs {
		if merged[i].URL != want {
			t.Errorf("record %d is %q, want %q", i, merged[i].URL, want)
		}
		if merged[i].ID != int32(i) {
			t.Errorf("record %d has ID %d", i, merged[i].ID)
		}
	}
}

// TestParallelRunMatchesSerial is the engine's core guarantee: sharding the
// schedule across workers yields bit-identical records, in the same order,
// as the serial path.
func TestParallelRunMatchesSerial(t *testing.T) {
	s := buildStack(t, 11, 8)
	base := PlatformConfig{Seed: 7, URLsPerDay: 3, RepeatsPerDay: 2}

	serialCfg := base
	serialCfg.Workers = 1
	serial := Run(s, serialCfg)

	for _, workers := range []int{2, 7, 8, 32} {
		parCfg := base
		parCfg.Workers = workers
		par := Run(buildStack(t, 11, 8), parCfg)
		if len(par.Records) != len(serial.Records) {
			t.Fatalf("workers=%d: %d records vs %d serial", workers, len(par.Records), len(serial.Records))
		}
		for i := range serial.Records {
			if !reflect.DeepEqual(serial.Records[i], par.Records[i]) {
				t.Fatalf("workers=%d: record %d differs from serial run", workers, i)
			}
		}
		if !reflect.DeepEqual(serial.Stats, par.Stats) {
			t.Fatalf("workers=%d: Table1 stats differ from serial run", workers)
		}
	}
}

// TestRunMatchesMergedByDay pins the equivalence of the engine's emission
// shapes: Run's flat, preallocated record layout must be bit-identical to
// MergeShards over RunByDay's per-day slices, at serial and parallel worker
// counts — the invariant that lets Run skip the concatenation copy. It also
// pins the property day sharding rests on: days measured one at a time in
// reverse order, and any contiguous split of the schedule measured range
// by range on independently built worlds, merge into the same sequence.
func TestRunMatchesMergedByDay(t *testing.T) {
	const seed, days = 13, 7
	base := PlatformConfig{Seed: 21, URLsPerDay: 3, RepeatsPerDay: 2}
	// measureRanges measures each [lo, hi) range on its own fresh world,
	// last range first, and merges the day shards.
	measureRanges := func(cfg PlatformConfig, chunks int) []Record {
		cfg.fillDefaults()
		shards := make([][]Record, days)
		for c := chunks - 1; c >= 0; c-- {
			s := buildStack(t, seed, days)
			for day := (c+1)*days/chunks - 1; day >= c*days/chunks; day-- {
				shards[day] = s.runDay(cfg, day)
			}
		}
		return MergeShards(shards)
	}
	cases := map[string][]Record{}
	for _, chunks := range []int{1, 2, 3, days} {
		cases[fmt.Sprintf("%d reversed ranges", chunks)] = measureRanges(base, chunks)
	}
	for _, workers := range []int{1, 2, 8} {
		cfg := base
		cfg.Workers = workers
		flat := Run(buildStack(t, seed, days), cfg)
		cases["RunByDay"] = MergeShards(RunByDay(buildStack(t, seed, days), cfg))
		for name, records := range cases {
			merged := NewDataset(buildStack(t, seed, days), records)
			if len(flat.Records) != len(merged.Records) {
				t.Fatalf("workers=%d, %s: flat %d records, merged %d", workers, name, len(flat.Records), len(merged.Records))
			}
			for i := range flat.Records {
				if !reflect.DeepEqual(flat.Records[i], merged.Records[i]) {
					t.Fatalf("workers=%d, %s: record %d differs from flat Run", workers, name, i)
				}
			}
			if !reflect.DeepEqual(flat.Stats, merged.Stats) {
				t.Fatalf("workers=%d, %s: Table1 stats differ from flat Run", workers, name)
			}
		}
	}
}

func TestScenarioDays(t *testing.T) {
	s := buildStack(t, 12, 9)
	if got := s.Days(); got != 9 {
		t.Fatalf("Days() = %d, want 9", got)
	}
}
