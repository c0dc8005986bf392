package main

import (
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
