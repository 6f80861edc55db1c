package netrel_test

// The committed benchmark trajectory files, BENCH_pr<N>.json, hold the
// relbench runs behind each change's performance claims: the manifest lines
// and final summaries of parent and change runs. This test keeps them
// readable by tooling: every file parses, names its own PR, lists only
// correct runs without failed operations, and keys its metrics by a
// workload and a metric that BENCHMARK.json declares. A run of one
// workload prints bare metric names; its manifest line names the workload.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// benchRun is one relbench run as a trajectory file records it.
type benchRun struct {
	RunOrder *int `json:"run_order"`
	Manifest []struct {
		Workload string `json:"workload"`
	} `json:"manifest"`
	Summary *struct {
		Correct bool                       `json:"correct"`
		Failed  *int                       `json:"failed"`
		Metrics map[string]json.RawMessage `json:"metrics"`
	} `json:"summary"`
}

func TestBenchFilesWellFormed(t *testing.T) {
	var decl struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	workloads, metrics := map[string]bool{}, map[string]bool{}
	for _, w := range decl.Workloads {
		workloads[w.Name] = true
	}
	for _, m := range append(decl.EndToEnd, decl.PerLayer...) {
		metrics[m.Name] = true
	}

	files, err := filepath.Glob("BENCH_pr*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no BENCH_pr*.json file found")
	}
	name := regexp.MustCompile(`^BENCH_pr([0-9]+)\.json$`)
	for _, f := range files {
		t.Run(f, func(t *testing.T) {
			m := name.FindStringSubmatch(f)
			if m == nil {
				t.Fatalf("file name does not match BENCH_pr<N>.json")
			}
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			var doc map[string]json.RawMessage
			if err := json.Unmarshal(b, &doc); err != nil {
				t.Fatal(err)
			}
			var pr int
			if want, _ := strconv.Atoi(m[1]); json.Unmarshal(doc["pr"], &pr) != nil || pr != want {
				t.Fatalf("pr field %s does not match the file name", doc["pr"])
			}
			checkRunSet(t, "", doc, workloads, metrics)
			// Further run sets (say, extra pairs of one workload) sit in
			// top-level objects of their own and obey the same rules.
			for key, raw := range doc {
				var set map[string]json.RawMessage
				if json.Unmarshal(raw, &set) != nil {
					continue
				}
				_, parent := set["parent"]
				_, change := set["change"]
				if parent || change {
					checkRunSet(t, key+".", set, workloads, metrics)
				}
			}
		})
	}
}

// checkRunSet checks the parent and change run lists of one run set.
func checkRunSet(t *testing.T, at string, set map[string]json.RawMessage, workloads, metrics map[string]bool) {
	t.Helper()
	for _, side := range []string{"parent", "change"} {
		var runs []benchRun
		if err := json.Unmarshal(set[side], &runs); err != nil || len(runs) == 0 {
			t.Errorf("%s%s: want a non-empty list of runs (%v)", at, side, err)
			continue
		}
		for i, r := range runs {
			where := at + side + "[" + strconv.Itoa(i) + "]"
			if r.RunOrder == nil || len(r.Manifest) == 0 || r.Summary == nil {
				t.Errorf("%s: want run_order, a non-empty manifest and a summary", where)
				continue
			}
			if !r.Summary.Correct || r.Summary.Failed == nil || *r.Summary.Failed != 0 {
				t.Errorf("%s: summary is not correct: true with failed: 0", where)
			}
			if len(r.Summary.Metrics) == 0 {
				t.Errorf("%s: summary has no metrics", where)
			}
			for _, m := range r.Manifest {
				if !workloads[m.Workload] {
					t.Errorf("%s: manifest workload %q is not in BENCHMARK.json", where, m.Workload)
				}
			}
			for key := range r.Summary.Metrics {
				w, m, ok := strings.Cut(key, "/")
				if !ok && len(r.Manifest) == 1 {
					w, m, ok = r.Manifest[0].Workload, key, true
				}
				if !ok || !workloads[w] || !metrics[m] {
					t.Errorf("%s: metric %q is not <workload>/<metric> as BENCHMARK.json declares them", where, key)
				}
			}
		}
	}
}
