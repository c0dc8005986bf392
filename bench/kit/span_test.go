package kit

import (
	"reflect"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spans []Span
		want  map[string]int64
	}{
		{"no children", []Span{{Name: "a", Parent: -1, Start: 0, End: 10}},
			map[string]int64{"a": 10}},
		{"one child inside", []Span{
			{Name: "a", Parent: -1, Start: 0, End: 10},
			{Name: "b", Parent: 0, Start: 2, End: 5},
		}, map[string]int64{"a": 7, "b": 3}},
		{"disjoint children", []Span{
			{Name: "a", Parent: -1, Start: 0, End: 10},
			{Name: "b", Parent: 0, Start: 1, End: 3},
			{Name: "b", Parent: 0, Start: 6, End: 9},
		}, map[string]int64{"a": 5, "b": 5}},
		{"overlapping children count once", []Span{
			{Name: "a", Parent: -1, Start: 0, End: 10},
			{Name: "b", Parent: 0, Start: 1, End: 6},
			{Name: "c", Parent: 0, Start: 4, End: 8},
		}, map[string]int64{"a": 3, "b": 5, "c": 4}},
		{"child outside its parent", []Span{
			{Name: "a", Parent: -1, Start: 10, End: 20},
			{Name: "b", Parent: 0, Start: 5, End: 12},
			{Name: "c", Parent: 0, Start: 18, End: 30},
		}, map[string]int64{"a": 6, "b": 7, "c": 12}},
		{"grandchildren reduce only their parent", []Span{
			{Name: "a", Parent: -1, Start: 0, End: 10},
			{Name: "b", Parent: 0, Start: 0, End: 6},
			{Name: "c", Parent: 1, Start: 1, End: 4},
		}, map[string]int64{"a": 4, "b": 3, "c": 3}},
		{"children listed out of order", []Span{
			{Name: "a", Parent: -1, Start: 0, End: 10},
			{Name: "b", Parent: 0, Start: 7, End: 9},
			{Name: "b", Parent: 0, Start: 1, End: 2},
		}, map[string]int64{"a": 7, "b": 3}},
	} {
		if got := SelfTimes(tc.spans); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: SelfTimes = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestTracerAndMerge(t *testing.T) {
	epoch := time.Now()
	a, b := NewTracer(epoch), NewTracer(epoch)
	root := a.Begin(1, "root", -1)
	a.End(a.Begin(1, "child", root))
	a.End(root)
	broot := b.Begin(2, "root", -1)
	b.End(b.Begin(2, "child", broot))
	b.End(broot)

	spans := Merge(a, nil, b)
	if len(spans) != 4 {
		t.Fatalf("merged %d spans, want 4", len(spans))
	}
	if spans[1].Parent != 0 || spans[3].Parent != 2 || spans[2].Parent != -1 {
		t.Errorf("parents after merge = %d %d %d %d", spans[0].Parent, spans[1].Parent, spans[2].Parent, spans[3].Parent)
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %+v ends before it starts", s)
		}
	}

	var off *Tracer
	if i := off.Begin(1, "x", -1); i != -1 {
		t.Errorf("a nil tracer returned span %d", i)
	}
	off.End(0)
}
