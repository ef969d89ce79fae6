package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestCheckSelection: only the paper's reproduced tables and figure are
// accepted; 0 (unset) passes so other modes can run.
func TestCheckSelection(t *testing.T) {
	for _, tc := range []struct {
		table, figure int
		wantErr       string
	}{
		{0, 0, ""},
		{4, 0, ""},
		{5, 0, ""},
		{0, 12, ""},
		{4, 12, ""},
		{3, 0, "-table 3"},
		{6, 0, "-table 6"},
		{-4, 0, "-table -4"},
		{0, 7, "-figure 7"},
		{0, 11, "-figure 11"},
		{5, 7, "-figure 7"},
	} {
		err := checkSelection(tc.table, tc.figure)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("table %d figure %d: unexpected error %v", tc.table, tc.figure, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("table %d figure %d: error %v, want one naming %q", tc.table, tc.figure, err, tc.wantErr)
		}
	}
}

// TestParseInts: the error names the bad value, not one particular flag
// (the callers prefix the flag name).
func TestParseInts(t *testing.T) {
	got, err := parseInts("1, 4,,16")
	if err != nil || !reflect.DeepEqual(got, []int{1, 4, 16}) {
		t.Fatalf("parseInts = %v, %v", got, err)
	}
	for _, bad := range []string{"0", "-2", "x", "4,lots"} {
		_, err := parseInts(bad)
		if err == nil {
			t.Errorf("parseInts(%q): want error", bad)
			continue
		}
		if strings.Contains(err.Error(), "replica") {
			t.Errorf("parseInts(%q): error %q names one flag's meaning", bad, err)
		}
	}
}
