package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"structream/internal/engine"
	"structream/internal/sql"
	"structream/internal/sql/logical"
	"structream/internal/yahoo"
)

// Input sizes. Each bulk drain is long enough that per-epoch fixed costs
// do not dominate, and short enough that a run repeats it several times
// and reports medians.
const (
	yahooEvents     = 1_000_000
	yahooCampaigns  = 100
	yahooEventsPerS = 100_000 // event-time density: 10 µs apart
	yahooChunk      = 100_000
	yahooEpochs     = 32 // fixed per-epoch cap = events / yahooEpochs

	aggRecords     = 200_000
	aggKeys        = 50_000
	aggEpochs      = 16
	aggMemtable    = 64 << 10 // LSM flush threshold per state store
	topicParts     = 4
	probePerPart   = 16 // records re-appended per partition after a restart
	windowMicros   = int64(10_000_000)
	microsPerEvent = 1_000_000 / yahooEventsPerS
)

const yahooSQL = `SELECT window(event_time, '10 seconds') AS w, campaign_id, count(*) AS cnt
FROM (SELECT ad_id, event_time FROM ad_events WHERE event_type = 'view') e
JOIN campaigns c ON e.ad_id = c.c_ad_id
GROUP BY window(event_time, '10 seconds'), campaign_id`

// yahooInput generates n ad events from yahoo.Generate in chunks (event
// times continue across chunks) and encodes them; rows are dropped once
// encoded, so only the codec-framed records stay in memory. want is the
// reference (campaign/window → count), computed as ExpectedWindows does.
func yahooInput(seed int64, n int) (in *encodedInput, want map[string]int64, adToCampaign map[int64]int64, campaigns []sql.Row) {
	in = newEncodedInput(topicParts)
	want = map[string]int64{}
	for k := 0; k*yahooChunk < n; k++ {
		m := n - k*yahooChunk
		if m > yahooChunk {
			m = yahooChunk
		}
		w := yahoo.Generate(m, yahooCampaigns, yahooEventsPerS, seed*7919+int64(k))
		shift := int64(k*yahooChunk) * microsPerEvent
		for _, e := range w.Events {
			e[5] = e[5].(int64) + shift
		}
		for key, c := range w.ExpectedWindows() {
			want[key] += c
		}
		in.addChunk(w.Events, func(r sql.Row) int64 { return r[5].(int64) })
		adToCampaign, campaigns = w.AdToCampaign, w.Campaigns
	}
	return in, want, adToCampaign, campaigns
}

func yahooKey(campaign, windowStart int64) string {
	return fmt.Sprintf("%d/%d", campaign, windowStart)
}

// yahooCounts reads the update-mode result table (w, campaign_id, cnt).
func yahooCounts(rows []sql.Row) (map[string]int64, error) {
	got := map[string]int64{}
	for _, r := range rows {
		w, ok1 := r[0].(sql.Window)
		c, ok2 := r[1].(int64)
		n, ok3 := r[2].(int64)
		if !ok1 || !ok2 || !ok3 {
			return nil, fmt.Errorf("unexpected result row %v", r)
		}
		got[yahooKey(c, w.Start)] = n
	}
	return got, nil
}

func runYahooCatchup(cfg config) (outcome, error) {
	in, want, adToCampaign, campaigns := yahooInput(cfg.seed, yahooEvents)
	if err := in.offHeap(); err != nil {
		return outcome{}, err
	}
	spec, err := newYahooSpec(in, want, adToCampaign, campaigns, yahooEvents/yahooEpochs)
	if err != nil {
		return outcome{}, err
	}
	out, err := runBulk(cfg, spec)
	out.info["groups"] = len(want)
	return out, err
}

// newYahooSpec is the Fig 6a query drained from in, capped at perEpoch
// records per epoch, on the memory backend with default workers.
func newYahooSpec(in *encodedInput, want map[string]int64, adToCampaign map[int64]int64, campaigns []sql.Row, perEpoch int64) (*bulkSpec, error) {
	probe := in.head(probePerPart)
	probeRows, err := decodeAll(probe)
	if err != nil {
		return nil, err
	}
	// After n probes, each touched group must read its drained count plus
	// n times the probe's views in it.
	delta := map[string]int64{}
	for _, e := range probeRows {
		if e[4] == "view" {
			ts := e[5].(int64)
			delta[yahooKey(adToCampaign[e[2].(int64)], ts-ts%windowMicros)]++
		}
	}
	return &bulkSpec{
		name:   "yahoo",
		stream: "ad_events",
		schema: yahoo.EventSchema,
		cat: &catalog{
			streams: map[string]sql.Schema{"ad_events": yahoo.EventSchema},
			tables:  map[string]staticTable{"campaigns": {schema: yahoo.CampaignSchema, rows: campaigns}},
		},
		sqlText: yahooSQL,
		mode:    logical.Update,
		input:   in,
		probe:   probe,
		options: func(ckpt string) engine.Options {
			o := baseOptions("yahoo-catchup", ckpt)
			o.Trigger = engine.AvailableNowTrigger{}
			o.MaxRecordsPerTrigger = perEpoch
			return o
		},
		check: func(rows []sql.Row) check {
			got, err := yahooCounts(rows)
			if err != nil {
				return check{attempted: int64(len(want)), failed: int64(len(want)), causes: []string{err.Error()}}
			}
			return compareCounts(got, want)
		},
		checkProbe: func(rows []sql.Row, n int) check {
			got, err := yahooCounts(rows)
			if err != nil {
				return check{attempted: int64(len(delta)), failed: int64(len(delta)), causes: []string{err.Error()}}
			}
			return compareCounts(got, afterProbes(want, delta, n))
		},
	}, nil
}

// aggInput draws records keys uniformly from nKeys high-cardinality
// strings, in pseudo-random order. want counts records per key.
func aggInput(seed int64, records, nKeys int) (*encodedInput, map[string]int64) {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]string, nKeys)
	salt := rng.Uint64()
	for i := range keys {
		keys[i] = fmt.Sprintf("user-%016x", mix64(uint64(i)^salt))
	}
	in := newEncodedInput(topicParts)
	want := map[string]int64{}
	const chunk = 50_000
	for done := 0; done < records; done += chunk {
		rows := make([]sql.Row, 0, chunk)
		for i := done; i < done+chunk && i < records; i++ {
			k := keys[rng.Intn(nKeys)]
			want[k]++
			rows = append(rows, sql.Row{k, int64(i)})
		}
		in.addChunk(rows, func(r sql.Row) int64 { return r[1].(int64) })
	}
	return in, want
}

// mix64 is a bijective 64-bit finalizer (splitmix64), so distinct key
// indices give distinct, well-spread key strings.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

var aggSchema = sql.NewSchema(
	sql.Field{Name: "k", Type: sql.TypeString},
	sql.Field{Name: "v", Type: sql.TypeInt64},
)

func aggCounts(rows []sql.Row) (map[string]int64, error) {
	got := map[string]int64{}
	for _, r := range rows {
		k, ok1 := r[0].(string)
		n, ok2 := r[1].(int64)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("unexpected result row %v", r)
		}
		got[k] = n
	}
	return got, nil
}

func runAggSpill(cfg config) (outcome, error) {
	in, want := aggInput(cfg.seed, aggRecords, aggKeys)
	if err := in.offHeap(); err != nil {
		return outcome{}, err
	}
	spec, err := newAggSpec(in, want, aggRecords/aggEpochs)
	if err != nil {
		return outcome{}, err
	}
	out, err := runBulk(cfg, spec)
	out.info["keys"] = len(want)
	return out, err
}

// newAggSpec is the agg-spill drain over in, capped at perEpoch records
// per epoch, on the LSM backend and the sharded executor.
func newAggSpec(in *encodedInput, want map[string]int64, perEpoch int64) (*bulkSpec, error) {
	probe := in.head(probePerPart)
	probeRows, err := decodeAll(probe)
	if err != nil {
		return nil, err
	}
	delta := map[string]int64{}
	for _, r := range probeRows {
		delta[r[0].(string)]++
	}
	return &bulkSpec{
		name:   "agg",
		stream: "kv",
		schema: aggSchema,
		cat: &catalog{
			streams: map[string]sql.Schema{"kv": aggSchema},
		},
		sqlText: `SELECT k, count(*) AS c FROM kv GROUP BY k`,
		mode:    logical.Update,
		input:   in,
		probe:   probe,
		options: func(ckpt string) engine.Options {
			o := baseOptions("agg-spill", ckpt)
			o.Trigger = engine.AvailableNowTrigger{}
			o.MaxRecordsPerTrigger = perEpoch
			o.StateBackend = "lsm"
			o.StateMemtableBytes = aggMemtable
			o.Workers = runtime.NumCPU()
			return o
		},
		check: func(rows []sql.Row) check {
			got, err := aggCounts(rows)
			if err != nil {
				return check{attempted: int64(len(want)), failed: int64(len(want)), causes: []string{err.Error()}}
			}
			return compareCounts(got, want)
		},
		checkProbe: func(rows []sql.Row, n int) check {
			got, err := aggCounts(rows)
			if err != nil {
				return check{attempted: int64(len(delta)), failed: int64(len(delta)), causes: []string{err.Error()}}
			}
			return compareCounts(got, afterProbes(want, delta, n))
		},
	}, nil
}

// afterProbes is the expected update-mode output after n probes: every
// group a probe touches, at its drained count plus n times the probe's
// contribution.
func afterProbes(want, delta map[string]int64, n int) map[string]int64 {
	out := make(map[string]int64, len(delta))
	for k, d := range delta {
		out[k] = want[k] + int64(n)*d
	}
	return out
}
