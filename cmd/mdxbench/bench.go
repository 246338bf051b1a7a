package main

// -bench-shards: serial-vs-sharded cycle-rate snapshots. Each case drives a
// machine under identical open-loop load at shard count 1 and at 4, timing
// the stepped cycles and recording the engine's final StateHash; the sharded
// hash must equal the serial one (the benchmark doubles as an equivalence
// smoke test at scale). The JSON lands in a file (BENCH_shard.json in CI)
// so the speed trajectory is tracked per commit instead of anecdotal.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"sr2201/internal/core"
	"sr2201/internal/geom"
)

type shardBenchEntry struct {
	Name          string  `json:"name"`
	Shape         string  `json:"shape"`
	PEs           int     `json:"pes"`
	ShardCount    int     `json:"shards"`
	BoundaryLinks int     `json:"boundary_links"`
	Cycles        int64   `json:"cycles"`
	WallMS        float64 `json:"wall_ms"`
	CyclesPerSec  float64 `json:"cycles_per_sec"`
	FinalHash     string  `json:"final_hash"`
	MatchesSerial bool    `json:"matches_serial"`
}

type shardBenchCase struct {
	name   string
	shape  geom.Shape
	rate   float64
	cycles int64
}

// runShardBenchCase steps one machine on the given shard count under seeded
// Bernoulli load for a fixed cycle budget. The injection stream is a pure
// function of the seed, so two runs of the same case at different shard
// counts reach identical states.
func runShardBenchCase(c shardBenchCase, shards int) (shardBenchEntry, error) {
	m, err := core.NewMachine(core.Config{Shape: c.shape})
	if err != nil {
		return shardBenchEntry{}, err
	}
	if err := m.Engine().SetShards(m.PlanShards(shards)); err != nil {
		return shardBenchEntry{}, err
	}
	rng := rand.New(rand.NewSource(17))
	size := c.shape.Size()
	start := time.Now()
	for cyc := int64(0); cyc < c.cycles; cyc++ {
		c.shape.Enumerate(func(s geom.Coord) bool {
			if rng.Float64() < c.rate {
				if d := c.shape.CoordOf(rng.Intn(size)); d != s {
					m.SendUnchecked(s, d, 8)
				}
			}
			return true
		})
		m.Step()
	}
	wall := time.Since(start)
	return shardBenchEntry{
		Name:          c.name,
		Shape:         c.shape.String(),
		PEs:           size,
		ShardCount:    m.Engine().ShardCount(),
		BoundaryLinks: m.Engine().BoundaryLinks(),
		Cycles:        c.cycles,
		WallMS:        float64(wall.Microseconds()) / 1000,
		CyclesPerSec:  float64(c.cycles) / wall.Seconds(),
		FinalHash:     fmt.Sprintf("%016x", m.Engine().StateHash()),
	}, nil
}

// benchShards runs every case serial and sharded and writes the JSON report.
// It returns an error when any sharded final hash differs from its serial
// twin — a perf snapshot that silently changed semantics is worse than none.
func benchShards(path string, quick bool) error {
	const shards = 4
	cases := []shardBenchCase{
		{name: "xbar2d-256", shape: geom.MustShape(16, 16), rate: 0.02, cycles: 1500},
		{name: "machine3d-512", shape: geom.MustShape(8, 8, 8), rate: 0.005, cycles: 400},
		{name: "machine3d-2048", shape: geom.MustShape(8, 16, 16), rate: 0.002, cycles: 200},
	}
	if quick {
		for i := range cases {
			cases[i].cycles /= 4
		}
	}
	var entries []shardBenchEntry
	mismatched := 0
	for _, c := range cases {
		serial, err := runShardBenchCase(c, 1)
		if err != nil {
			return fmt.Errorf("%s serial: %w", c.name, err)
		}
		serial.MatchesSerial = true
		sharded, err := runShardBenchCase(c, shards)
		if err != nil {
			return fmt.Errorf("%s sharded: %w", c.name, err)
		}
		sharded.MatchesSerial = sharded.FinalHash == serial.FinalHash
		if !sharded.MatchesSerial {
			mismatched++
		}
		entries = append(entries, serial, sharded)
		fmt.Fprintf(os.Stderr, "mdxbench: %-15s shards=%d %9.0f cyc/s | shards=%d %9.0f cyc/s (%d boundary links, hash match=%v)\n",
			c.name, serial.ShardCount, serial.CyclesPerSec, sharded.ShardCount, sharded.CyclesPerSec,
			sharded.BoundaryLinks, sharded.MatchesSerial)
	}
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if mismatched > 0 {
		return fmt.Errorf("%d case(s) diverged from serial — see %s", mismatched, path)
	}
	return nil
}
