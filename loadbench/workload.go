package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/mint"
)

// check selects the output check a response body gets beyond status and
// byte identity.
type check uint8

const (
	checkNone       check = iota
	checkPNR              // pnr response: the embedded device validates; quality is recorded
	checkDeviceJSON       // convert to JSON: the embedded device validates
	checkMINT             // convert to MINT: the text parses, converts, and validates
)

// Body is a request body held as parts, so a renamed variant of a large
// inline device shares the base body's bytes instead of copying them.
type Body struct{ parts [][]byte }

func bodyOf(b []byte) Body { return Body{parts: [][]byte{b}} }

// Len is the body size in bytes.
func (b Body) Len() int {
	n := 0
	for _, p := range b.parts {
		n += len(p)
	}
	return n
}

// Bytes returns the body contiguously (allocating when it is split).
func (b Body) Bytes() []byte {
	if len(b.parts) == 1 {
		return b.parts[0]
	}
	out := make([]byte, 0, b.Len())
	for _, p := range b.parts {
		out = append(out, p...)
	}
	return out
}

// Reader streams the body.
func (b Body) Reader() io.Reader {
	if len(b.parts) == 1 {
		return bytes.NewReader(b.parts[0])
	}
	rs := make([]io.Reader, len(b.parts))
	for i, p := range b.parts {
		rs[i] = bytes.NewReader(p)
	}
	return io.MultiReader(rs...)
}

// Request is one generated request. The server sees only Body; the other
// fields tell the load generator where to send it and how to check it.
type Request struct {
	// Op is the pipeline operation: validate, convert, pnr, stats, render.
	Op string
	// Job submits the request through POST /v1/jobs and waits for the
	// job's result instead of calling the synchronous endpoint.
	Job  bool
	Body Body
	// Gzip sends Accept-Encoding: gzip.
	Gzip bool
	// Key names the response: equal keys must answer equal bytes, and the
	// committed manifest maps keys to the SHA-256 of those bytes.
	Key   string
	Check check
}

// Path is the endpoint the request is sent to.
func (r *Request) Path() string {
	switch {
	case r.Job:
		return "/v1/jobs"
	case r.Op == "render":
		return "/v1/render.svg"
	}
	return "/v1/" + r.Op
}

// Plan is everything one workload run sends, as a pure function of the
// seed and the run length.
type Plan struct {
	// Prefill runs during set-up, so the measured phases find a warm cache.
	Prefill []Request
	// Sat is the closed-loop list of the saturation phase, cycled if a run
	// gets through all of it.
	Sat []Request
	// Fixed and Due are the open-loop phase: request i is due Due[i] after
	// the phase starts (Poisson arrivals at the workload's fixed rate).
	Fixed []Request
	Due   []time.Duration
	// Probe runs after the measured phases, untimed: seed-independent keys,
	// so a workload whose traffic has no pnr still reports the paper's
	// quality metrics, and one whose keys all depend on the seed still
	// compares some responses with the manifest on every seed.
	Probe []Request

	SatDur, FixedDur time.Duration
}

// Workload is one traffic mix.
type Workload struct {
	Name string
	// Rate is the fixed offered rate of the open-loop phase in requests
	// per second. It was chosen once, at 26 to 35% of the workload's
	// saturation throughput on the 2-core reference machine, and is never
	// derived at run time, so a parent and a change are measured at the
	// same load.
	Rate float64
	// Block is the stratification block of the workload's lists: both
	// phases send whole blocks, so every run sends the same mix.
	Block int
	// SatCap bounds the saturation list; distinct-key workloads must not
	// reach it (a run that does fails rather than repeat keys).
	SatCap int
	// Journal runs the server with a fresh job journal.
	Journal bool
	// gen returns the first n requests of a phase's list ("sat" or
	// "fixed"), and the prefill and probe lists.
	gen      func(seed uint64, phase string, n int) []Request
	prefill  func() []Request
	probe    func() []Request
	repeated bool // keys recur, so the saturation list may be cycled
}

var workloads = []*Workload{
	{Name: "warm_hits", Rate: 1500, Block: 98, SatCap: 4 * 98,
		gen: genWarm, prefill: warmKeys, repeated: true},
	{Name: "inline_parse", Rate: 700, Block: inlineBlock, SatCap: 60000,
		gen: genInline, prefill: inlineHot, probe: inlineProbe},
	{Name: "jobs_journal", Rate: 100, Block: 18, SatCap: 20000, Journal: true,
		gen: genJobs, probe: jobsProbe},
}

const (
	// satShare is the share of a run spent in the saturation phase.
	satShare = 0.3
	// setupBoots is how many times a run sets up the server; setup_s is
	// the median.
	setupBoots = 5
)

func workloadByName(name string) (*Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// Plan generates the run's requests.
func (w *Workload) Plan(seed uint64, seconds float64) Plan {
	total := time.Duration(seconds * float64(time.Second))
	p := Plan{SatDur: time.Duration(float64(total) * satShare)}
	p.FixedDur = total - p.SatDur
	// The phase sends whole blocks: the count is the rate's expectation
	// rounded to blocks, and the arrival times are that many uniform draws
	// over the phase, sorted — a Poisson process conditioned on its count.
	nBlocks := max(1, int(math.Round(w.Rate*p.FixedDur.Seconds()/float64(w.Block))))
	r := newRNG(seed, w.Name+"/arrivals")
	p.Due = make([]time.Duration, nBlocks*w.Block)
	for i := range p.Due {
		p.Due[i] = time.Duration(r.Float64() * float64(p.FixedDur))
	}
	sort.Slice(p.Due, func(i, j int) bool { return p.Due[i] < p.Due[j] })
	p.Fixed = w.gen(seed, "fixed", len(p.Due))
	p.Sat = w.gen(seed, "sat", w.SatCap)
	if w.prefill != nil {
		p.Prefill = w.prefill()
	}
	if w.probe != nil {
		p.Probe = w.probe()
	}
	return p
}

// blocks draws n items in shuffled blocks: every block holds each item
// once, in an order the stream picks. Stratifying this way keeps the mix
// of a run identical across seeds, so seeds move the inputs (order, fresh
// keys) without moving the average cost of a request.
func blocks[T any](r *rng, items []T, n int) []T {
	out := make([]T, 0, n+len(items))
	block := make([]T, len(items))
	for len(out) < n {
		copy(block, items)
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out[:n]
}

// jsonBody renders an envelope with encoding/json's field order.
func jsonBody(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only static envelope types reach here
	}
	return b
}

type benchEnv struct {
	Op     string `json:"op,omitempty"`
	Bench  string `json:"bench"`
	Seed   uint64 `json:"seed,omitempty"`
	Placer string `json:"placer,omitempty"`
	Router string `json:"router,omitempty"`
}

func benchReq(op string, env benchEnv, chk check) Request {
	b := jsonBody(env)
	return Request{Op: op, Body: bodyOf(b), Key: op + " " + string(b), Check: chk}
}

// Suite devices the workloads draw from. planar_synthetic_5 is left out
// everywhere: one pnr of it takes several seconds on the reference
// machine, longer than a whole phase can absorb.
var (
	assayDevices = []string{"aquaflex_3b", "aquaflex_5a", "chromatin_immunoprecipitation",
		"general_purpose_mfd", "hiv_diagnostics", "molecular_gradients", "rotary_pcr"}
	warmPNRDevices  = append(append([]string{}, assayDevices...), "planar_synthetic_1", "planar_synthetic_2")
	warmReadDevices = append(append([]string{}, warmPNRDevices...), "planar_synthetic_3", "planar_synthetic_4")
)

// warmKeys is the warm_hits key set: validate, stats, and convert on the
// suite, greedy pnr on the devices it routes quickly, and render (which
// runs the default annealing pnr once, at prefill) on the assay devices.
func warmKeys() []Request {
	var out []Request
	for _, d := range warmReadDevices {
		out = append(out,
			benchReq("validate", benchEnv{Bench: d}, checkNone),
			benchReq("stats", benchEnv{Bench: d}, checkNone),
			benchReq("convert", benchEnv{Bench: d}, checkMINT))
	}
	for _, d := range warmPNRDevices {
		out = append(out, benchReq("pnr", benchEnv{Bench: d, Placer: "greedy", Router: "hadlock"}, checkPNR))
	}
	for _, d := range assayDevices {
		out = append(out, benchReq("render", benchEnv{Bench: d}, checkNone))
	}
	return out
}

// genWarm cycles the warm key set, each key once with and once without
// Accept-Encoding: gzip per block.
func genWarm(seed uint64, phase string, n int) []Request {
	keys := warmKeys()
	items := make([]Request, 0, 2*len(keys))
	for _, k := range keys {
		items = append(items, k)
		k.Gzip = true
		items = append(items, k)
	}
	return blocks(newRNG(seed, "warm_hits/"+phase), items, n)
}

// inlineBody is one body of the fixed inline_parse body set.
type inlineBody struct {
	op, id string
	body   []byte
	// name locates the device name inside body, so renamed variants
	// (fresh cache keys with the same parse work) can be spliced.
	nameAt, nameLen int
	chk             check
}

// inlineSweep is the synthetic sweep the inline bodies come from: 10 to
// 1280 components, about 4 KB to 470 KB of ParchMint JSON each.
func inlineSweep() []bench.SweepPoint { return bench.Sweep(10, 8, 2018) }

// inlineStatsMax is the largest sweep device stats runs on:
// stats.ProfileDevice grows super-linearly (about 13 ms at 160
// components, 850 ms at 1326 on the reference machine), so one stats
// miss on the largest bodies would dominate a whole block and the
// workload would measure stats instead of parsing.
const inlineStatsMax = 160

// inlineBodies builds the fixed body set: every sweep device as inline
// ParchMint JSON and as MINT text, under validate and convert, and under
// stats up to inlineStatsMax components.
var inlineBodies = sync.OnceValue(func() []inlineBody {
	var set []inlineBody
	for _, sp := range inlineSweep() {
		js, err := core.MarshalCanonical(sp.Device)
		if err != nil {
			panic(err)
		}
		f, _, err := mint.FromDevice(sp.Device)
		if err != nil {
			panic(err)
		}
		dev := append(append([]byte(`{"device":`), js...), '}')
		txt := jsonBody(struct {
			Text   string `json:"text"`
			Format string `json:"format"`
		}{mint.Print(f), "mint"})
		ops := []string{"validate", "convert"}
		if sp.Components <= inlineStatsMax {
			ops = append(ops, "stats")
		}
		for _, op := range ops {
			jchk, mchk := checkNone, checkNone
			if op == "convert" {
				jchk, mchk = checkMINT, checkDeviceJSON
			}
			for _, b := range []inlineBody{
				{op: op, id: sp.Name + ".json", body: dev, chk: jchk},
				{op: op, id: sp.Name + ".mint", body: txt, chk: mchk},
			} {
				b.nameAt, b.nameLen = bytes.Index(b.body, []byte(sp.Name)), len(sp.Name)
				set = append(set, b)
			}
		}
	}
	return set
})

func (b *inlineBody) request() Request {
	return Request{Op: b.op, Body: bodyOf(b.body), Key: b.op + " inline:" + b.id, Check: b.chk}
}

// renamed is the body under a fresh device name: a cache miss that still
// reads, parses, and hashes the whole body.
func (b *inlineBody) renamed(suffix string) Request {
	name := b.body[b.nameAt : b.nameAt+b.nameLen : b.nameAt+b.nameLen]
	return Request{
		Op: b.op,
		Body: Body{parts: [][]byte{
			b.body[: b.nameAt+b.nameLen : b.nameAt+b.nameLen],
			[]byte(suffix),
			b.body[b.nameAt+b.nameLen:],
		}},
		Key:   b.op + " inline:" + b.id + " as " + string(name) + suffix,
		Check: b.chk,
	}
}

func inlineHot() []Request {
	set := inlineBodies()
	out := make([]Request, len(set))
	for i := range set {
		out[i] = set[i].request()
	}
	return out
}

// inlineWeights is the fixed Zipf popularity (exponent 1) of the body
// set, over a rank order fixed independently of the run seed.
func inlineWeights() []float64 {
	n := len(inlineBodies())
	rank := make([]int, n)
	for i := range rank {
		rank[i] = i + 1
	}
	r := newRNG(2018, "inline_parse/ranks")
	r.Shuffle(n, func(i, j int) { rank[i], rank[j] = rank[j], rank[i] })
	w := make([]float64, n)
	sum := 0.0
	for i, k := range rank {
		w[i] = 1 / float64(k)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// apportion splits total among weights by largest remainder.
func apportion(weights []float64, total int) []int {
	counts := make([]int, len(weights))
	rem := make([]int, len(weights))
	left := total
	for i, w := range weights {
		counts[i] = int(math.Floor(w * float64(total)))
		left -= counts[i]
		rem[i] = i
	}
	sort.SliceStable(rem, func(a, b int) bool {
		fa := weights[rem[a]]*float64(total) - float64(counts[rem[a]])
		fb := weights[rem[b]]*float64(total) - float64(counts[rem[b]])
		return fa > fb
	})
	for i := 0; i < left; i++ {
		counts[rem[i]]++
	}
	return counts
}

// Each inline block of 200 requests holds 170 draws of the prefilled
// body set and 30 renamed (never-seen) variants, both split by the Zipf
// weights: an 85% hit ratio by construction.
const (
	inlineBlock = 200
	inlineHits  = 170
)

func genInline(seed uint64, phase string, n int) []Request {
	set := inlineBodies()
	w := inlineWeights()
	hits := apportion(w, inlineHits)
	misses := apportion(w, inlineBlock-inlineHits)
	type draw struct {
		i    int
		miss bool
	}
	var items []draw
	for i := range set {
		for k := 0; k < hits[i]; k++ {
			items = append(items, draw{i, false})
		}
		for k := 0; k < misses[i]; k++ {
			items = append(items, draw{i, true})
		}
	}
	prefix := "_u" + strconv.FormatUint(seed, 36) + phase[:1]
	out := make([]Request, 0, n)
	for _, d := range blocks(newRNG(seed, "inline_parse/"+phase), items, n) {
		if d.miss {
			out = append(out, set[d.i].renamed(prefix+strconv.Itoa(len(out))))
		} else {
			out = append(out, set[d.i].request())
		}
	}
	return out
}

// inlineProbe routes the three smallest sweep devices (greedy, hadlock),
// so inline_parse reports the paper's quality metrics on its own inputs.
func inlineProbe() []Request {
	var out []Request
	for _, sp := range inlineSweep()[:3] {
		js, err := core.MarshalCanonical(sp.Device)
		if err != nil {
			panic(err)
		}
		b := jsonBody(struct {
			Device json.RawMessage `json:"device"`
			Placer string          `json:"placer"`
			Router string          `json:"router"`
		}{js, "greedy", "hadlock"})
		out = append(out, Request{Op: "pnr", Body: bodyOf(b), Key: "pnr inline:" + sp.Name + ".json greedy/hadlock", Check: checkPNR})
	}
	return out
}

// probeSeed is the pnr seed of the jobs_journal probe. It is even, and
// the phases' pnr seeds are all odd, so a probe key never coincides with
// a measured one.
const probeSeed = 2018

// jobsProbe submits jobs_journal's three kinds of job with fixed keys:
// greedy and force pnr, and validate on an inline device.
func jobsProbe() []Request {
	out := []Request{
		benchReq("pnr", benchEnv{Op: "pnr", Bench: "aquaflex_3b", Seed: probeSeed, Placer: "greedy", Router: "hadlock"}, checkPNR),
		benchReq("pnr", benchEnv{Op: "pnr", Bench: "hiv_diagnostics", Seed: probeSeed, Placer: "force", Router: "hadlock"}, checkPNR),
		jobValidateBases()["rotary_pcr"].request(),
	}
	for i := range out {
		out[i].Job = true
		out[i].Key = "job " + out[i].Key
	}
	return out
}

// jobDevices are small suite devices whose greedy or force pnr takes a
// few milliseconds, so job bookkeeping and the journal dominate.
var jobDevices = []string{"aquaflex_3b", "aquaflex_5a", "chromatin_immunoprecipitation", "hiv_diagnostics", "rotary_pcr"}

// genJobs mixes fresh job keys with resubmissions of keys submitted
// earlier in the same phase. Per block of 18: ten fresh pnr jobs (five
// devices, greedy and force), two fresh validate jobs on a renamed
// inline device, and six resubmissions. With a third resubmitted (cache
// hits, still journaled) rather than half, the median falls inside the
// fresh jobs' latency band instead of the gap between the two bands.
func genJobs(seed uint64, phase string, n int) []Request {
	type slot struct {
		fresh  bool
		dev    string
		placer string // "" = validate
	}
	var items []slot
	for _, d := range jobDevices {
		items = append(items, slot{true, d, "greedy"}, slot{true, d, "force"})
	}
	items = append(items, slot{true, "rotary_pcr", ""}, slot{true, "hiv_diagnostics", ""})
	for i := 0; i < 6; i++ {
		items = append(items, slot{})
	}
	r := newRNG(seed, "jobs_journal/"+phase)
	seeds := newRNG(seed, "jobs_journal/seeds/"+phase)
	out := make([]Request, 0, n)
	var fresh []Request
	slots := blocks(r, items, n)
	// The first block opens with a fresh key, so every resubmission has
	// an earlier key to draw from.
	for i := range slots {
		if slots[i].fresh {
			slots[0], slots[i] = slots[i], slots[0]
			break
		}
	}
	for _, s := range slots {
		if !s.fresh {
			out = append(out, fresh[r.IntN(len(fresh))])
			continue
		}
		var q Request
		if s.placer != "" {
			q = benchReq("pnr", benchEnv{Op: "pnr", Bench: s.dev, Placer: s.placer, Router: "hadlock", Seed: seeds.Uint64() | 1}, checkPNR)
		} else {
			q = jobValidateBases()[s.dev].renamed("_j" + strconv.FormatUint(seeds.Uint64(), 36))
		}
		q.Job = true
		q.Key = "job " + q.Key
		fresh = append(fresh, q)
		out = append(out, q)
	}
	return out
}

// jobValidateBases are the validate-job bodies, one per device, renamed
// per job so every key is new while the work stays small.
var jobValidateBases = sync.OnceValue(func() map[string]*inlineBody {
	bases := map[string]*inlineBody{}
	for _, dev := range []string{"rotary_pcr", "hiv_diagnostics"} {
		bm, err := bench.ByName(dev)
		if err != nil {
			panic(err)
		}
		js, err := core.MarshalCanonical(bm.Build())
		if err != nil {
			panic(err)
		}
		body := jsonBody(struct {
			Op     string          `json:"op"`
			Device json.RawMessage `json:"device"`
		}{"validate", js})
		bases[dev] = &inlineBody{op: "validate", id: dev + ".json", body: body,
			nameAt: bytes.Index(body, []byte(dev)), nameLen: len(dev)}
	}
	return bases
})
