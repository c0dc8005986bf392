package main

import (
	"flag"
	"reflect"
	"testing"
)

func TestParseIntList(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []int
	}{
		{"1,2,4,8", []int{1, 2, 4, 8}},
		{" 50 , 100,200 ", []int{50, 100, 200}},
		{"3", []int{3}},
		{"2.5", nil},
		{"3x", nil},
		{"1e3", nil},
		{"0", nil},
		{"-2", nil},
		{"1,,2", nil},
		{"", nil},
	} {
		got, err := parseIntList(tc.in)
		if tc.want == nil {
			if err == nil {
				t.Errorf("parseIntList(%q) = %v, want an error", tc.in, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseIntList(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

// parse parses args the way main does, on a fresh flag set.
func parse(t *testing.T, args ...string) options {
	t.Helper()
	fs := flag.NewFlagSet("ffsim", flag.ContinueOnError)
	o := defineFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return *o
}

func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		args []string
		ok   bool
	}{
		{nil, true},
		{[]string{"-fig", "all"}, true},
		{[]string{"-fig", "19"}, false},
		{[]string{"-fig", ""}, false},
		{[]string{"-fig", "ALL"}, false},
		{[]string{"-serve-mode", "wire"}, true},
		{[]string{"-serve-mode", "tcp"}, false},
		{[]string{"-grid", "0.25"}, true},
		{[]string{"-grid", "0"}, false},
		{[]string{"-grid", "-1"}, false},
		{[]string{"-grid", "NaN"}, false},
		{[]string{"-sic-trials", "0"}, true},
		{[]string{"-sic-trials", "-1"}, false},
		{[]string{"-fig", "12", "-sic-trials", "-1"}, false},
		{[]string{"-fig", "cancel", "-sic-trials", "1"}, true},
		{[]string{"-fig", "cancel", "-sic-trials", "0"}, false},
		{[]string{"-fig", "21", "-ident-locations", "1", "-ident-packets", "1"}, true},
		{[]string{"-fig", "21", "-ident-locations", "0"}, false},
		{[]string{"-fig", "21", "-ident-packets", "0"}, false},
		{[]string{"-fig", "21", "-ident-locations", "-3"}, false},
		{[]string{"-fig", "12", "-ident-locations", "0"}, true},
	} {
		err := validate(parse(t, tc.args...))
		if (err == nil) != tc.ok {
			t.Errorf("validate(%q) = %v, want ok=%v", tc.args, err, tc.ok)
		}
	}
}

func TestFigureTable(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range figures {
		if seen[f.name] || f.name == "all" {
			t.Errorf("figure name %q is reserved or listed twice", f.name)
		}
		seen[f.name] = true
		if err := validate(parse(t, "-fig", f.name)); err != nil {
			t.Errorf("-fig %s: %v", f.name, err)
		}
		if got := selected(f.name); len(got) != 1 || got[0].name != f.name {
			t.Errorf("selected(%q) = %v, want just that figure", f.name, got)
		}
	}

	var all []string
	for _, f := range selected("all") {
		all = append(all, f.name)
	}
	want := []string{"12", "13", "14", "15", "16", "17", "18", "deg", "fleet"}
	if !reflect.DeepEqual(all, want) {
		t.Errorf("-fig all runs %v, want %v", all, want)
	}
	if got := parse(t).fig; got != "all" {
		t.Errorf("default -fig = %q, want all", got)
	}
}
