package main

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// FuzzParseQuery feeds arbitrary /query strings to both parsers. Neither
// may panic, and whatever they accept must survive a round trip through
// its printed form: an index predicate through "<op> <value>", a table
// conjunction through Pred.String joined by " AND ".
func FuzzParseQuery(f *testing.F) {
	for _, s := range []string{
		"<= 17", "== 3", "<> 0", "> 18446744073709551615", "<=17", "<= -1",
		"a <= 5 AND b != -3 AND c=7", "quantity <= 10 AND price > 500",
		"a<b = 5", "a > 1 AND AND b = 2", "x == +4", " AND ", "",
		"a= == 5", "x = 1 AND y AND= 2",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, q string) {
		if op, v, err := parsePredicate(q); err == nil {
			again := fmt.Sprintf("%s %d", op, v)
			op2, v2, err := parsePredicate(again)
			if err != nil || op2 != op || v2 != v {
				t.Fatalf("%q parsed as %q, which re-parses as (%v, %d, %v)", q, again, op2, v2, err)
			}
		}
		preds, err := parseConjunction(q)
		if err != nil {
			return
		}
		parts := make([]string, len(preds))
		for i, p := range preds {
			parts[i] = p.String()
		}
		again := strings.Join(parts, " AND ")
		preds2, err := parseConjunction(again)
		if err != nil || !slices.Equal(preds, preds2) {
			t.Fatalf("%q parsed as %q, which re-parses as %v (%v), want %v", q, again, preds2, err, preds)
		}
	})
}
