package main

// The correctness gate. golden.json records, for every workload, the
// canonical answer line of every job seed in the pool (one line for
// exact-dining, whose input does not depend on the seed). A job whose
// answer differs by one byte fails.

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
)

// seedPool is the number of distinct job seeds, 1..seedPool, a
// workload's jobs draw from.
const seedPool = 64

//go:embed golden.json
var goldenJSON []byte

var golden = func() map[string][]string {
	var g map[string][]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic(fmt.Sprintf("golden.json: %v", err)) // embedded at build time
	}
	return g
}()

// jobSeeds returns the job seeds of a run with the given workload seed:
// the pool in an order drawn from it, repeated as often as needed.
func jobSeeds(seed int64) func() int64 {
	perm := rand.New(rand.NewSource(seed)).Perm(seedPool)
	i := 0
	return func() int64 {
		s := int64(perm[i%seedPool] + 1)
		i++
		return s
	}
}

// checkAnswer compares a job's answer line with the recorded one.
func checkAnswer(workload string, seed int64, got string) error {
	lines := golden[workload]
	i := int(seed - 1)
	if len(lines) == 1 {
		i = 0
	}
	if i < 0 || i >= len(lines) {
		return fmt.Errorf("%s: no recorded answer for job seed %d", workload, seed)
	}
	if got != lines[i] {
		return fmt.Errorf("%s: wrong answer for job seed %d:\n got  %s\n want %s", workload, seed, got, lines[i])
	}
	return nil
}

// record recomputes every workload's answers along the reference path
// and writes them to path as the new golden.json.
func record(ctx context.Context, path string) error {
	g := map[string][]string{}
	for _, d := range workloadDecls {
		w := workloads[d.Name]
		n := seedPool
		if w.seedless {
			n = 1
		}
		for seed := int64(1); seed <= int64(n); seed++ {
			line, err := w.answer(ctx, seed)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", d.Name, seed, err)
			}
			g[d.Name] = append(g[d.Name], line)
		}
		fmt.Fprintf(os.Stderr, "recorded %d answers for %s\n", n, d.Name)
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
