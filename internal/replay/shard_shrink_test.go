package replay

// Random-topology sharded-vs-serial shrinker: seeded rand generates RunSpecs
// over random shapes, fault schedules and shard counts; each spec's cell is
// stepped serial and sharded in lockstep, and the engine state hashes must
// agree every cycle. On a divergence the harness does what a human debugging
// a shard regression would: it names the exact first divergent cycle, then
// shrinks the spec — waves down, faults dropped, shards reduced — to the
// smallest still-diverging reproducer before failing with its JSON and shard
// count (ready to pin in testdata). One previously interesting spec is
// pinned as a regression corpus so the exact scenario keeps being re-checked
// forever. NewMachine only shards the full 2048-PE machine, so the sharded
// twin gets its plan installed here.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sr2201/internal/campaign"
)

// randomShardSpec draws one RunSpec and a shard count from the generator
// distribution: 1-3 dimensions of extent 2-4, up to two scheduled faults, a
// random pattern and retransmission tuning, and a random shard count 2-5.
func randomShardSpec(rng *rand.Rand) (RunSpec, int) {
	dims := 1 + rng.Intn(3)
	extents := make([]int, dims)
	shape := ""
	for i := range extents {
		extents[i] = 2 + rng.Intn(3)
		if i > 0 {
			shape += "x"
		}
		shape += fmt.Sprint(extents[i])
	}
	spec := RunSpec{
		Shape:   shape,
		Pattern: fmt.Sprintf("shift+%d", 1+rng.Intn(5)),
		Waves:   1 + rng.Intn(3),
		Gap:     int64(8 + rng.Intn(24)),
		Horizon: 20_000,
	}
	shards := 2 + rng.Intn(4)
	if rng.Intn(2) == 0 {
		spec.Pattern = "reverse"
	}
	if rng.Intn(2) == 0 {
		spec.Retransmit = true
		spec.RetryAfter = int64(24 + rng.Intn(48))
	}
	for n := rng.Intn(3); n > 0; n-- {
		cycle := rng.Intn(60)
		if rng.Intn(2) == 0 {
			coord := ""
			for i := range extents {
				if i > 0 {
					coord += ","
				}
				coord += fmt.Sprint(rng.Intn(extents[i]))
			}
			spec.Fails = append(spec.Fails, fmt.Sprintf("rtc:%s@%d", coord, cycle))
		} else {
			dim := rng.Intn(dims)
			coord := ""
			for i := range extents {
				if i > 0 {
					coord += ","
				}
				if i == dim {
					coord += "0" // the line's own dimension is zero by convention
				} else {
					coord += fmt.Sprint(rng.Intn(extents[i]))
				}
			}
			spec.Fails = append(spec.Fails, fmt.Sprintf("xb:%d:%s@%d", dim, coord, cycle))
		}
	}
	return spec, shards
}

// shardDivergence steps the spec's cell serial and on n shards in lockstep
// and reports the first cycle whose engine StateHash differs, or where one
// run finished while the other ran on. ok=false only on divergence.
func shardDivergence(t *testing.T, spec RunSpec, n int) (Divergence, bool) {
	t.Helper()
	cs, err := spec.CellSpec()
	if err != nil {
		t.Fatalf("cell spec %+v: %v", spec, err)
	}
	serial, err := campaign.NewCellRun(cs)
	if err != nil {
		t.Fatalf("serial %+v: %v", spec, err)
	}
	sharded, err := campaign.NewCellRun(cs)
	if err != nil {
		t.Fatalf("sharded %+v: %v", spec, err)
	}
	if err := sharded.Machine().Engine().SetShards(sharded.Machine().PlanShards(n)); err != nil {
		t.Fatalf("SetShards(%d) %+v: %v", n, spec, err)
	}
	for {
		da, db := serial.Step(), sharded.Step()
		if ha, hb := hashAt(serial), hashAt(sharded); ha != hb || da != db {
			return Divergence{Diverged: true, Cycle: serial.Cycle(), HashA: ha, HashB: hb, Terminated: ha == hb}, false
		}
		if da {
			return Divergence{}, true
		}
	}
}

// shrinkShardSpec greedily minimizes a diverging spec and shard count: fewer
// waves, fewer faults, fewer shards — keeping each reduction only while it
// still diverges.
func shrinkShardSpec(t *testing.T, spec RunSpec, shards int) (RunSpec, int) {
	t.Helper()
	improved := true
	for improved {
		improved = false
		for spec.Waves > 1 {
			c := spec
			c.Waves--
			if _, ok := shardDivergence(t, c, shards); !ok {
				spec = c
				improved = true
			} else {
				break
			}
		}
		for i := 0; i < len(spec.Fails); i++ {
			c := spec
			c.Fails = append(append([]string(nil), spec.Fails[:i]...), spec.Fails[i+1:]...)
			if _, ok := shardDivergence(t, c, shards); !ok {
				spec = c
				improved = true
				i--
			}
		}
		for shards > 2 {
			if _, ok := shardDivergence(t, spec, shards-1); !ok {
				shards--
				improved = true
			} else {
				break
			}
		}
		if spec.Retransmit {
			c := spec
			c.Retransmit = false
			c.RetryAfter = 0
			if _, ok := shardDivergence(t, c, shards); !ok {
				spec = c
				improved = true
			}
		}
	}
	return spec, shards
}

func TestShardShrinkerRandomSpecs(t *testing.T) {
	// The generator seed is fixed so the corpus is stable; bumping the seed
	// or count is how a suspicious engine change widens the net.
	rng := rand.New(rand.NewSource(20260808))
	n := 12
	if testing.Short() {
		n = 4
	}
	for i := 0; i < n; i++ {
		spec, shards := randomShardSpec(rng)
		d, ok := shardDivergence(t, spec, shards)
		if !ok {
			min, minShards := shrinkShardSpec(t, spec, shards)
			dm, _ := shardDivergence(t, min, minShards)
			js, _ := json.Marshal(min)
			t.Fatalf("run on %d shards diverged from serial at cycle %d (hash %s vs %s)\nminimal reproducer (pin in testdata/shard_regression.json, count in TestShardRegressionCorpus):\n%s\n(original spec diverged at cycle %d on %d shards)",
				minShards, dm.Cycle, dm.HashA, dm.HashB, js, d.Cycle, shards)
		}
	}
}

func TestShardRegressionCorpus(t *testing.T) {
	// The pinned corpus spec: an asymmetric 3-D shape with a mid-run
	// crossbar fault and retransmission, stepped on an odd shard count — the
	// kind of cell the random generator found most delicate. It must stay
	// hash-identical to serial forever.
	const shards = 3
	data, err := os.ReadFile(filepath.Join("testdata", "shard_regression.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec RunSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if d, ok := shardDivergence(t, spec, shards); !ok {
		t.Fatalf("pinned corpus spec diverged at cycle %d (%s vs %s)", d.Cycle, d.HashA, d.HashB)
	}
}

func TestShardsFieldRecordingReplays(t *testing.T) {
	// Recordings written while RunSpec still carried a "shards" count keep
	// loading: the field is ignored, and the recording replays to the same
	// hash ladder as a fresh one.
	data, err := os.ReadFile(filepath.Join("testdata", "shard_regression.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec RunSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	ref, err := Record(spec, 16, 0, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := Record(spec, 16, 0, dir); err != nil {
		t.Fatal(err)
	}
	metaPath := filepath.Join(dir, "meta.json")
	raw, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	legacyMeta := strings.Replace(string(raw), `"spec": {`, `"spec": {
    "shards": 3,`, 1)
	if legacyMeta == string(raw) {
		t.Fatalf("meta.json has no spec object to patch:\n%s", raw)
	}
	if err := os.WriteFile(metaPath, []byte(legacyMeta), 0o644); err != nil {
		t.Fatal(err)
	}
	legacy, err := Load(dir)
	if err != nil {
		t.Fatalf("recording with a shards field no longer loads: %v", err)
	}
	again, err := Record(legacy.Meta.Spec, 16, 0, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(again.Meta.Points, again.Meta.Final) != fmt.Sprint(ref.Meta.Points, ref.Meta.Final) {
		t.Errorf("replayed ladder differs:\nreplayed: %v %v\nfresh:    %v %v",
			again.Meta.Points, again.Meta.Final, ref.Meta.Points, ref.Meta.Final)
	}
	d, err := Bisect(ref, legacy)
	if err != nil {
		t.Fatal(err)
	}
	if d.Diverged {
		t.Errorf("legacy recording diverges from a fresh one at cycle %d (%s vs %s)", d.Cycle, d.HashA, d.HashB)
	}
}
