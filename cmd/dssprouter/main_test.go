package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseNodes(t *testing.T) {
	cases := []struct {
		name, nodes string
		want        []string
		wantErr     string
	}{
		{name: "one node", nodes: "http://n0", want: []string{"http://n0"}},
		{name: "fleet order kept, spaces trimmed", nodes: "http://n1, http://n0", want: []string{"http://n1", "http://n0"}},
		// The bug this function exists for: a repeated URL used to become
		// two ring nodes, and the ring admin endpoints could name only one.
		{name: "repeated URL", nodes: "http://n0,http://n1,http://n0", wantErr: "http://n0 named twice"},
		{name: "repeated after trimming", nodes: "http://n0, http://n0 ", wantErr: "named twice"},
		{name: "no nodes", nodes: "", wantErr: "empty node URL"},
		{name: "empty URL in list", nodes: "http://n0,,http://n2", wantErr: "empty node URL"},
		{name: "trailing comma", nodes: "http://n0,", wantErr: "empty node URL"},
	}
	for _, c := range cases {
		got, err := parseNodes(c.nodes)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
		} else if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: got %q, want %q", c.name, got, c.want)
		}
	}
}
