package main

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/mint"
	"repro/internal/validate"
)

// manifest maps response keys to the SHA-256 of their bytes. The
// committed file covers every key of the seed-independent body sets
// (warm_hits, inline_parse) and the keys the fixed seed generates for
// the other workloads; every run compares the keys it shares with it.
type manifest struct {
	Seed    uint64            `json:"seed"`
	Entries map[string]string `json:"entries"`
}

func loadManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return &manifest{Entries: map[string]string{}}, nil
	}
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("manifest %s: %w", path, err)
	}
	if m.Entries == nil {
		m.Entries = map[string]string{}
	}
	return &m, nil
}

// compare fails every key whose bytes differ from the manifest and
// returns how many keys it compared.
func (m *manifest) compare(led *ledger) int {
	n := 0
	for key, sum := range led.hashes {
		want, ok := m.Entries[key]
		if !ok {
			continue
		}
		n++
		if got := hex.EncodeToString(sum[:]); got != want {
			led.fail(fmt.Sprintf("%s: sha256 %s, manifest has %s", key, got, want))
		}
	}
	return n
}

// manifestFixedKeys is how many distinct fixed-phase keys a recording
// run adds per workload, which keeps the file small while every
// workload's seed-1 run still compares its opening requests.
const manifestFixedKeys = 200

// merge adds the run's hashes for the plan's prefill and probe keys and
// its first fixed-phase keys to the manifest and writes it.
func (m *manifest) merge(led *ledger, plan Plan, seed uint64, path string) error {
	keys := append(append([]Request{}, plan.Prefill...), plan.Probe...)
	seen := map[string]bool{}
	for i := 0; i < len(plan.Fixed) && len(seen) < manifestFixedKeys; i++ {
		if k := plan.Fixed[i].Key; !seen[k] {
			seen[k] = true
			keys = append(keys, plan.Fixed[i])
		}
	}
	for _, q := range keys {
		if sum, ok := led.hashes[q.Key]; ok {
			m.Entries[q.Key] = hex.EncodeToString(sum[:])
		}
	}
	m.Seed = seed
	b, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// pnrBody is the part of a pnr response the checks read.
type pnrBody struct {
	Device json.RawMessage `json:"device"`
	Output string          `json:"output"`
	Place  struct {
		HPWL int64 `json:"hpwl_um"`
	} `json:"place"`
	Route struct {
		Routed int `json:"routed"`
		Total  int `json:"total"`
	} `json:"route"`
}

// checkDevice validates the device a pnr or convert response returns.
func checkDevice(s *stored) error {
	var b pnrBody
	if err := json.Unmarshal(s.body, &b); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	var d *core.Device
	var err error
	switch s.chk {
	case checkPNR, checkDeviceJSON:
		d, err = core.Unmarshal(b.Device)
	case checkMINT:
		var f *mint.File
		if f, err = mint.Parse(b.Output); err == nil {
			d, _, err = mint.ToDevice(f)
		}
	default:
		return nil
	}
	if err != nil {
		return fmt.Errorf("returned device does not parse: %w", err)
	}
	if rep := validate.Validate(d); rep.Errors() > 0 {
		return fmt.Errorf("returned device has %d validation errors", rep.Errors())
	}
	return nil
}

// checkDevices validates every stored pnr and convert response.
func checkDevices(led *ledger) int {
	keys := make([]string, 0, len(led.bodies))
	for k := range led.bodies {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := checkDevice(led.bodies[k]); err != nil {
			led.fail(k + ": " + err.Error())
		}
	}
	return len(keys)
}

// quality is the paper's metrics over the distinct pnr responses of
// keys: the geometric mean of placement HPWL and the routed share of all
// nets.
func quality(led *ledger, reqs []Request) (hpwlGeomean, routedRatio float64, n int, err error) {
	seen := map[string]bool{}
	logSum, routed, total := 0.0, 0, 0
	for i := range reqs {
		q := &reqs[i]
		if q.Check != checkPNR || seen[q.Key] {
			continue
		}
		seen[q.Key] = true
		s, ok := led.bodies[q.Key]
		if !ok {
			continue // failed; already counted
		}
		var b pnrBody
		if err := json.Unmarshal(s.body, &b); err != nil {
			return 0, 0, 0, fmt.Errorf("%s: %w", q.Key, err)
		}
		if b.Place.HPWL <= 0 {
			return 0, 0, 0, fmt.Errorf("%s: non-positive hpwl_um %d", q.Key, b.Place.HPWL)
		}
		logSum += math.Log(float64(b.Place.HPWL))
		routed += b.Route.Routed
		total += b.Route.Total
		n++
	}
	if n == 0 || total == 0 {
		return 0, 0, 0, errors.New("no pnr responses to measure quality on")
	}
	return math.Exp(logSum / float64(n)), float64(routed) / float64(total), n, nil
}
