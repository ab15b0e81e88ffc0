package pipeline

import (
	"reflect"
	"testing"

	"repro/internal/detect"
)

// ObserveBatch must reproduce single-engine results exactly at any
// shard count — the same invariant TestPipelineMatchesEngine pins for
// the per-record path.
func TestPipelineObserveBatchMatchesEngine(t *testing.T) {
	dict, w := testDict(t)
	obs := genObs(t, dict, w)

	eng := detect.New(dict, 0.4)
	for _, o := range obs {
		eng.Observe(o.Sub, o.Hour, o.IP, o.Port, o.Pkts)
	}
	want := eng.Snapshot()
	if want.CountAnyDetected() == 0 {
		t.Fatal("reference engine detected nothing; stream is too weak to compare")
	}

	for _, n := range []int{1, 4, 8} {
		p := New(dict, 0.4, n)
		prod := p.NewProducer()
		// Feed in uneven slices so batches straddle dispatch boundaries.
		for i := 0; i < len(obs); {
			k := min(1+i%113, len(obs)-i)
			prod.ObserveBatch(obs[i : i+k])
			i += k
		}
		got := p.Snapshot()
		if !reflect.DeepEqual(got.Detections(), want.Detections()) {
			t.Fatalf("shards=%d: batch-path detections diverge from single engine", n)
		}
		if got.Subscribers() != want.Subscribers() {
			t.Fatalf("shards=%d: subscribers %d != %d", n, got.Subscribers(), want.Subscribers())
		}
		for ri := range dict.Rules {
			if got.CountDetected(ri) != want.CountDetected(ri) {
				t.Fatalf("shards=%d rule %d: count %d != %d", n, ri,
					got.CountDetected(ri), want.CountDetected(ri))
			}
		}
		p.Close()
	}
}

func TestSetBatchSizeClampsAndApplies(t *testing.T) {
	dict, _ := testDict(t)
	p := New(dict, 0.4, 2)
	defer p.Close()
	if got := p.BatchSize(); got != DefaultBatchSize {
		t.Fatalf("initial batch size %d, want %d", got, DefaultBatchSize)
	}
	p.SetBatchSize(1000)
	if got := p.BatchSize(); got != 1000 {
		t.Fatalf("batch size %d, want 1000", got)
	}
	p.SetBatchSize(1)
	if got := p.BatchSize(); got != MinBatchSize {
		t.Fatalf("batch size %d, want floor %d", got, MinBatchSize)
	}
	p.SetBatchSize(1 << 20)
	if got := p.BatchSize(); got != MaxBatchSize {
		t.Fatalf("batch size %d, want ceiling %d", got, MaxBatchSize)
	}
}

func TestAdaptiveBatchSize(t *testing.T) {
	cases := []struct {
		rate float64
		want int
	}{
		{0, DefaultBatchSize},      // controller not seeded yet
		{-5, DefaultBatchSize},     // nonsense rate
		{1000, MinBatchSize},       // 2 records/batch → floor
		{100_000, 200},             // 2ms of records
		{1_000_000, 2000},          // 2ms of records
		{10_000_000, MaxBatchSize}, // 20k records → ceiling
	}
	for _, c := range cases {
		if got := AdaptiveBatchSize(c.rate); got != c.want {
			t.Errorf("AdaptiveBatchSize(%v) = %d, want %d", c.rate, got, c.want)
		}
	}
}

// Retuning the batch size mid-stream must not lose observations.
func TestSetBatchSizeLiveRetune(t *testing.T) {
	dict, w := testDict(t)
	obs := genObs(t, dict, w)
	eng := detect.New(dict, 0.4)
	for _, o := range obs {
		eng.Observe(o.Sub, o.Hour, o.IP, o.Port, o.Pkts)
	}
	want := eng.Snapshot()

	p := New(dict, 0.4, 4)
	prod := p.NewProducer()
	sizes := []int{MinBatchSize, 700, MaxBatchSize, 128}
	for i := 0; i < len(obs); {
		p.SetBatchSize(sizes[i%len(sizes)])
		k := min(1+i%61, len(obs)-i)
		prod.ObserveBatch(obs[i : i+k])
		i += k
	}
	got := p.Snapshot()
	if !reflect.DeepEqual(got.Detections(), want.Detections()) {
		t.Fatal("live batch-size retune lost or reordered observations")
	}
	p.Close()
}

// Once per-shard buffers exist, the producer-side batch path is pure
// appends under one lock: no allocations, even when the flusher hands
// a partial buffer off mid-measurement, because the next append then
// reuses a recycled one.
func TestObserveBatchZeroAllocsSteadyState(t *testing.T) {
	dict, w := testDict(t)
	obs := genObs(t, dict, w)
	if len(obs) > 64 {
		obs = obs[:64]
	}
	p := New(dict, 0.4, 4)
	defer p.Close()
	// Fill every shard's recycle ring, as dispatches at a steady rate
	// do, so a timed flush during the measurement cannot leave the
	// next append without a recycled buffer.
	for _, s := range p.shards {
		for len(s.free) < cap(s.free) {
			s.free <- make([]Obs, 0, DefaultBatchSize)
		}
	}
	prod := p.NewProducer()
	// Warm: the engines learn every subscriber (a timed flush applying
	// these observations must not allocate engine state mid-measurement),
	// then the producer takes a recycled buffer per shard.
	prod.ObserveBatch(obs)
	p.Sync()
	prod.ObserveBatch(obs)
	runs := 0
	allocs := testing.AllocsPerRun(10, func() {
		// Stay below the dispatch threshold: this pins the per-record
		// append path; dispatch recycling is exercised elsewhere.
		if runs++; runs*len(obs) < DefaultBatchSize-len(obs) {
			prod.ObserveBatch(obs)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state ObserveBatch allocates %v allocs/run, want 0", allocs)
	}
}
