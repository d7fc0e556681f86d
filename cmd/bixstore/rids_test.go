package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"bitmapindex"
	"bitmapindex/internal/catalog"
)

// TestServeRIDLimit: in both serve modes, limit must be a non-negative
// integer (anything else is 400 "bad limit"), and limit=0 returns no ids.
func TestServeRIDLimit(t *testing.T) {
	st, err := bitmapindex.OpenIndex(buildTestIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	qs, err := newQueryServer(st, 4, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := newTableServer(buildTestTable(t), "")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		mux  *http.ServeMux
		q    string
	}{
		{"index", qs.mux(), "%3C%3D+17"},
		{"table", ts.mux(), "quantity+%3C%3D+30"},
	} {
		for _, tc := range []struct {
			limit string
			code  int
			ids   int
		}{
			{"", 200, 20},
			{"&limit=0", 200, 0},
			{"&limit=3", 200, 3},
			{"&limit=-5", 400, 0},
			{"&limit=abc", 400, 0},
			{"&limit=2x", 400, 0},
		} {
			code, body := serveGet(t, mode.mux, "/query?q="+mode.q+"&rids=1"+tc.limit)
			if code != tc.code {
				t.Errorf("%s rids=1%s: status %d, want %d: %s", mode.name, tc.limit, code, tc.code, body)
				continue
			}
			if code != 200 {
				if !strings.Contains(body, "bad limit") {
					t.Errorf("%s rids=1%s: body %q, want bad limit", mode.name, tc.limit, body)
				}
				continue
			}
			var resp struct {
				Matches int   `json:"matches"`
				RIDs    []int `json:"rids"`
			}
			if err := json.Unmarshal([]byte(body), &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Matches < 20 || len(resp.RIDs) != tc.ids {
				t.Errorf("%s rids=1%s: %d ids of %d matches, want %d", mode.name, tc.limit, len(resp.RIDs), resp.Matches, tc.ids)
			}
		}
	}
}

// TestServeTableCountAndRIDs: on a row-sorted table, /query reports the
// same matches with and without rids=1, and the ids are the first ones of
// Table.Query's bitmap over original row ids.
func TestServeTableCountAndRIDs(t *testing.T) {
	dir := buildTestTable(t, "-z", "-enc", "interval", "-reorder", "lex")
	ts, err := newTableServer(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	mux := ts.mux()
	tbl, err := catalog.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"quantity <= 10 AND price > 500", "price != 35", "quantity > 17"} {
		preds, err := parseConjunction(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := tbl.Query(preds, nil)
		if err != nil {
			t.Fatal(err)
		}
		path := "/query?q=" + strings.NewReplacer(" ", "+", "<", "%3C", ">", "%3E", "=", "%3D", "!", "%21").Replace(q)
		var plain, withIDs tableQueryResponse
		for _, c := range []struct {
			path string
			out  *tableQueryResponse
		}{{path, &plain}, {path + "&rids=1&limit=7", &withIDs}} {
			code, body := serveGet(t, mux, c.path)
			if code != 200 {
				t.Fatalf("%s = %d: %s", c.path, code, body)
			}
			if err := json.Unmarshal([]byte(body), c.out); err != nil {
				t.Fatal(err)
			}
		}
		if plain.Matches != want.Count() || withIDs.Matches != want.Count() {
			t.Errorf("%q: matches %d without rids, %d with, want %d", q, plain.Matches, withIDs.Matches, want.Count())
		}
		if len(plain.RIDs) != 0 {
			t.Errorf("%q: ids returned without rids=1", q)
		}
		first := firstIDs(want, 7)
		if len(withIDs.RIDs) != len(first) {
			t.Fatalf("%q: rids %v, want %v", q, withIDs.RIDs, first)
		}
		for i := range first {
			if withIDs.RIDs[i] != first[i] {
				t.Fatalf("%q: rids %v, want %v", q, withIDs.RIDs, first)
			}
		}
	}
}

// TestCLIRIDLimit: `query -rids` and `where -rids` print exactly limit ids
// (none for -limit 0) and reject a negative limit.
func TestCLIRIDLimit(t *testing.T) {
	ixDir, tblDir := buildTestIndex(t), buildTestTable(t, "-reorder", "gray")
	for _, c := range []struct {
		name string
		run  func(w io.Writer, args []string) error
		args []string
	}{
		{"query", runQuery, []string{"-dir", ixDir, "-q", "<= 17"}},
		{"where", runWhere, []string{"-dir", tblDir, "-q", "quantity <= 30"}},
	} {
		for _, limit := range []int{0, 1, 4} {
			var out bytes.Buffer
			if err := c.run(&out, append(c.args, "-rids", "-limit", strconv.Itoa(limit))); err != nil {
				t.Fatalf("%s -limit %d: %v", c.name, limit, err)
			}
			// Two summary lines, then one id per line.
			if ids := strings.Count(out.String(), "\n") - 2; ids != limit {
				t.Errorf("%s -limit %d printed %d ids:\n%s", c.name, limit, ids, out.String())
			}
		}
		if err := c.run(new(bytes.Buffer), append(c.args, "-rids", "-limit", "-1")); err == nil {
			t.Errorf("%s -limit -1 must fail", c.name)
		}
	}
}
