package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"time"

	"eilid/internal/fleet"
)

// columns are the four defense columns every workload runs, named
// explicitly so that a registry change shows up as a fingerprint
// mismatch instead of a silently larger workload.
var columns = []string{"baseline", "eilid", "shadow", "critvar"}

// tableIVApps are the seven applications of the paper's Table IV.
var tableIVApps = []string{
	"LightSensor", "UltrasonicRanger", "FireSensor", "SyringePump",
	"TempSensor", "Charlieplexing", "LcdSensor",
}

// attackScenarios are the six handcrafted attack scenarios.
var attackScenarios = []string{
	"stack-smash", "rop-chain", "isr-context-tamper", "fnptr-hijack",
	"code-injection", "shadow-stack-tamper",
}

// workers is the pool size of every workload: the two CPUs of the
// reference host.
const workers = 2

// jobTimeout is eilid-fleet's default per-job watchdog; the workloads
// keep it armed so its cost stays in the measured per-job machinery.
const jobTimeout = fleet.Duration(2 * time.Minute)

// workload is one named benchmark input.
type workload struct {
	name string
	// batch is the closed batch a batch workload repeats; nil for the
	// service workload.
	batch *fleet.BatchSpec
}

var workloads = map[string]workload{
	// apps-x4: long benign jobs (about 285k simulated cycles each), so
	// host time goes to Machine.Run and the defense hooks.
	"apps-x4": {name: "apps-x4", batch: &fleet.BatchSpec{
		Matrix: fleet.MatrixSpec{Apps: tableIVApps, NoScenarios: true, Defenses: columns, Repeat: 1},
		Exec:   fleet.ExecSpec{Workers: workers, JobTimeout: jobTimeout},
	}},
	// attacks-x4: jobs of 200-1000 simulated cycles, so host time goes
	// to the per-job machinery; eilid resets on every attack, which
	// drives the monitors down their violation path.
	"attacks-x4": {name: "attacks-x4", batch: &fleet.BatchSpec{
		Matrix: fleet.MatrixSpec{NoApps: true, Scenarios: attackScenarios, Defenses: columns, Repeat: 100},
		Exec:   fleet.ExecSpec{Workers: workers, JobTimeout: jobTimeout},
	}},
	// fleetd-mixed: generated-scenario submissions to an in-process
	// fleetd, four in five warm; the only workload where preparation,
	// the warm cache and the HTTP service are on the measured path.
	"fleetd-mixed": {name: "fleetd-mixed"},
}

// Generated submissions of fleetd-mixed.
const (
	genCount = 24
	// coldEvery makes every coldEvery-th submission cold.
	coldEvery = 5
)

// warmSeeds are the generated seeds the warm submissions cycle through.
var warmSeeds = []uint64{101, 102, 103}

// genSpec is one fleetd-mixed submission.
func genSpec(seed uint64) fleet.BatchSpec {
	return fleet.BatchSpec{
		Matrix: fleet.MatrixSpec{
			NoApps: true, NoScenarios: true, Defenses: columns,
			Generated: fleet.GeneratedSpec{Seed: seed, Count: genCount},
		},
		Exec: fleet.ExecSpec{Workers: workers, JobTimeout: jobTimeout},
	}
}

// submissionSeed is the generated seed of submission i of a
// fleetd-mixed run: a warm seed, or every coldEvery-th submission a
// fresh one derived from the workload seed. Fresh seeds are at least
// 1<<32, so they never collide with a warm seed.
func submissionSeed(workloadSeed uint64, i int) uint64 {
	if i%coldEvery == coldEvery-1 {
		return 1<<32 | splitmix(workloadSeed<<20+uint64(i))>>32
	}
	return warmSeeds[(i-i/coldEvery)%len(warmSeeds)]
}

// splitmix is the SplitMix64 finalizer: a cheap, well-mixed hash of x.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// digests.json pins the sha256 of each batch workload's journal. The
// batch workloads do not depend on the seed, so one digest covers every
// seed; regenerate with -print-digests after a change that is meant to
// change job results.
//
//go:embed digests.json
var digestsJSON []byte

func recordedDigest(name string) (string, error) {
	var d map[string]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return "", fmt.Errorf("digests.json: %w", err)
	}
	if d[name] == "" {
		return "", fmt.Errorf("digests.json records no journal digest for %s", name)
	}
	return d[name], nil
}
