package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestTailReportsHighestSupportedPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		label string
	}{
		{1000, "p99"}, {5000, "p99"}, {999, "p90"}, {100, "p90"}, {99, "p50"}, {20, "p50"}, {19, "max"}, {1, "max"},
	} {
		got := tailOf(seq(tc.n))
		if got.Label != tc.label || got.N != tc.n {
			t.Errorf("n=%d: got %s with n=%d, want %s", tc.n, got.Label, got.N, tc.label)
		}
	}
	if got := tailOf(seq(1000)); math.Abs(got.Value-990.01) > 1e-9 {
		t.Errorf("p99 of 1..1000 = %v, want 990.01", got.Value)
	}
	if got := tailOf(seq(5)); got.Value != 5 {
		t.Errorf("max of 1..5 = %v", got.Value)
	}
}

func TestGateTripsOnBadAnswers(t *testing.T) {
	good := answer{Reliability: 0.5, Lower: 0.4, Upper: 0.6, Variance: 1e-4, SamplesUsed: 100, Subproblems: 2}
	if err := checkBounds(good); err != nil {
		t.Fatalf("good answer rejected: %v", err)
	}
	inverted := good
	inverted.Lower, inverted.Upper = 0.6, 0.4
	outside := good
	outside.Reliability = 0.7
	for _, bad := range []answer{inverted, outside} {
		if err := checkBounds(bad); !errors.Is(err, errGate) {
			t.Errorf("checkBounds(%+v) = %v, want a gate failure", bad, err)
		}
	}

	// An HTTP answer one ulp away from the in-process answer fails the
	// warm-pass comparison, as does a different draw count.
	sets := [][]int{{0, 1}}
	off := good
	off.Reliability = math.Nextafter(good.Reliability, 1)
	draws := good
	draws.SamplesUsed++
	for _, got := range []answer{off, draws} {
		if err := checkWarm(sets, []answer{good}, []answer{got}); !errors.Is(err, errGate) {
			t.Errorf("checkWarm(%+v) = %v, want a gate failure", got, err)
		}
	}
	if err := checkWarm(sets, []answer{good}, []answer{good}); err != nil {
		t.Errorf("identical answers rejected: %v", err)
	}
}

// TestTinyRuns runs every workload at tiny size, untraced and traced, and
// requires the summary to carry exactly the named metrics with their units.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds netreld and runs every workload")
	}
	bin := filepath.Join(t.TempDir(), "netreld")
	if out, err := exec.Command("go", "build", "-o", bin, "netrel/cmd/netreld").CombinedOutput(); err != nil {
		t.Fatalf("building netreld: %v\n%s", err, out)
	}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{Seed: 3, Seconds: 0.3, Trace: traced, Tiny: true, Netreld: bin}
			dir := t.TempDir()
			var buf bytes.Buffer
			if err := run(&buf, wl.Name, cfg, dir); err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var sum struct {
				Correct   bool              `json:"correct"`
				Attempted int               `json:"attempted"`
				Failed    int               `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
				t.Fatalf("%s traced=%v: last line is not the summary: %v", wl.Name, traced, err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if !sum.Correct || sum.Attempted < 1 || len(sum.Metrics) != len(want) {
				t.Errorf("%s traced=%v: summary %+v", wl.Name, traced, sum)
			}
			for _, s := range want {
				m, ok := sum.Metrics[s.Name]
				if !ok || m.Unit != s.Unit || math.IsNaN(m.Value) {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", wl.Name, traced, s.Name, m, s.Unit)
				}
			}
			if !traced {
				continue
			}
			reports, err := filepath.Glob(filepath.Join(dir, "*.json"))
			if err != nil || len(reports) != 1 {
				t.Fatalf("%s: trace reports %v, %v", wl.Name, reports, err)
			}
			if err := diffReports(&buf, reports[0], reports[0]); err != nil {
				t.Errorf("%s: diff of a report with itself: %v", wl.Name, err)
			}
		}
	}
}

// TestServeClientStopsOnFailures pins that a daemon failing every request
// ends a client's run at the deadline, with the failures counted, instead of
// retrying until the minimum read count is met.
func TestServeClientStopsOnFailures(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	w := &serveWork{sp: serveSpec{BatchSize: 2, Clients: 1, MinReads: 1000}, sets: [][]int{{0, 1}}, zipf: []float64{1}, m: 1}
	c := newClient(srv.URL)
	defer c.close()
	cl := &clientLog{}
	cl.run(c, rand.New(rand.NewPCG(1, 2)), w, time.Now().Add(50*time.Millisecond), false, 0)
	if cl.attempted == 0 || cl.failed != cl.attempted || cl.done != 0 {
		t.Errorf("attempted %d, failed %d, done %d", cl.attempted, cl.failed, cl.done)
	}
}

func TestLayerTimesSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 0, Layer: "query", DurUS: 100},
		{ID: 2, Parent: 1, Req: 0, Layer: "core.construct", DurUS: 70},
		{ID: 3, Parent: 1, Req: 0, Layer: "core.sample", DurUS: 20},
		{ID: 4, Req: -1, Layer: "preprocess.index", DurUS: 1000}, // set-up: not blocking
	}
	got := make(map[string]layerTime)
	for _, lt := range layerTimes(spans) {
		got[lt.Layer] = lt
	}
	if len(got) != 3 {
		t.Fatalf("layers %v", got)
	}
	for layer, want := range map[string]float64{"query": 0.010, "core.construct": 0.070, "core.sample": 0.020} {
		if lt := got[layer]; math.Abs(lt.SelfMS-want) > 1e-12 || math.Abs(lt.Share-want*10) > 1e-12 {
			t.Errorf("%s: %+v, want self %v ms", layer, lt, want)
		}
	}
}
