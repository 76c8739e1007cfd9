package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
)

// refs.json holds the reference digest of every operation, in operation
// order, for the default seed and one held-out seed: workload -> seed ->
// hex digests. Other seeds check invariants and in-run determinism only.
// Regenerate an entry with --record refs.json after a change that is
// meant to alter simulated results.
//
//go:embed refs.json
var refsJSON []byte

type refTable map[string]map[string][]string

func referenceDigests(workload string, seed int64) ([]uint64, error) {
	var t refTable
	if err := json.Unmarshal(refsJSON, &t); err != nil {
		return nil, fmt.Errorf("refs.json: %w", err)
	}
	hexes, ok := t[workload][strconv.FormatInt(seed, 10)]
	if !ok {
		return nil, nil
	}
	out := make([]uint64, len(hexes))
	for i, h := range hexes {
		v, err := strconv.ParseUint(h, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("refs.json: %s seed %d: %w", workload, seed, err)
		}
		out[i] = v
	}
	return out, nil
}

// recordDigests writes the run's first digest of every operation into the
// refs file at path, keeping the other entries.
func recordDigests(path, workload string, seed int64, first map[int]uint64) error {
	t := refTable{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &t); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	idx := make([]int, 0, len(first))
	for i := range first {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	hexes := make([]string, len(idx))
	for k, i := range idx {
		if i != k {
			return fmt.Errorf("record: operation %d has no digest", k)
		}
		hexes[k] = fmt.Sprintf("%016x", first[i])
	}
	if t[workload] == nil {
		t[workload] = map[string][]string{}
	}
	t[workload][strconv.FormatInt(seed, 10)] = hexes
	data, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
