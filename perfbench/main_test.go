package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"dmknn/internal/geo"
	"dmknn/internal/model"
)

// TestSmoke runs every workload at smoke scale, untraced and traced, and
// checks that all of the benchmark's checks pass and that the result
// carries exactly the metrics BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for _, w := range workloadNames {
		for trace, want := range [][]struct{ Name, Unit string }{bench.EndToEnd, bench.PerLayer} {
			var out bytes.Buffer
			args := []string{"--workload", w, "--seed", "7", "--seconds", "0.2", "--trace", strconv.Itoa(trace), "--scale", "smoke"}
			if err := run(args, &out); err != nil {
				t.Fatalf("%s trace=%d: %v", w, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, BENCHMARK.json lists %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", w, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestOracle checks that the brute-force oracle accepts exact answers,
// including either choice among objects tied at the k-th distance, and
// rejects every kind of inexact one.
func TestOracle(t *testing.T) {
	// Distances from the origin: 1, 2, 3, 3, 5.
	objs := []model.ObjectState{
		{ID: 1, Pos: geo.Pt(1, 0)},
		{ID: 2, Pos: geo.Pt(0, 2)},
		{ID: 3, Pos: geo.Pt(-3, 0)},
		{ID: 4, Pos: geo.Pt(0, -3)},
		{ID: 5, Pos: geo.Pt(5, 0)},
	}
	answer := func(ids ...model.ObjectID) model.Answer {
		var a model.Answer
		for _, id := range ids {
			a.Neighbors = append(a.Neighbors, model.Neighbor{ID: id})
		}
		return a
	}
	var o oracle
	for _, ok := range []model.Answer{answer(1, 2, 3), answer(2, 1, 4)} {
		if err := o.exact(objs, 0, 0, 3, ok); err != nil {
			t.Errorf("exact answer %v rejected: %v", ok.IDs(), err)
		}
	}
	for _, bad := range []model.Answer{
		answer(1, 2),       // too few
		answer(1, 2, 3, 4), // too many
		answer(2, 3, 4),    // misses a strictly nearer object
		answer(1, 2, 5),    // holds an object beyond the k-th distance
		answer(1, 2, 2),    // duplicate
		answer(1, 2, 9),    // not an object
	} {
		if err := o.exact(objs, 0, 0, 3, bad); err == nil {
			t.Errorf("inexact answer %v accepted", bad.IDs())
		}
	}
}

// TestRoundLength checks that every full-scale round measures enough
// ticks for the tail percentile to leave ten beyond it.
func TestRoundLength(t *testing.T) {
	for _, w := range workloadNames {
		s, err := buildSpec(w, "full", 1)
		if err != nil {
			t.Fatal(err)
		}
		if beyond := s.ticks * (100 - tailPct) / 100; s.ticks < minTicks || beyond < 10 {
			t.Errorf("%s: %d ticks a round leave %d beyond p%d", w, s.ticks, beyond, tailPct)
		}
	}
}

// TestMedianReplay checks that each tick's time is its median over the
// rounds after scaling each round to the reference host's speed, so one
// round slowed at a tick, or a run on a slower host, does not move the
// figures.
func TestMedianReplay(t *testing.T) {
	ms := time.Millisecond
	rounds := []*round{
		{walls: []time.Duration{10 * ms, 20 * ms}, speed: 1},
		{walls: []time.Duration{60 * ms, 30 * ms}, speed: 0.5}, // 30, 15
		{walls: []time.Duration{4 * ms, 9 * ms}, speed: 2},     // 8, 18
	}
	for _, r := range rounds {
		r.cpus = r.walls
	}
	out := map[string]metric{}
	endToEnd(rounds, 1, out)
	for name, want := range map[string]float64{
		"tick_ms_p50":     10,
		"tick_ms_tail":    18,
		"cpu_ms_per_tick": 14,
		"ticks_per_s":     1000.0 / 14,
	} {
		if got := out[name].Value; math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}
