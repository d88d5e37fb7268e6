package main

import (
	"reflect"
	"strings"
	"testing"

	"dssp/internal/httpapi"
)

func TestParseHome(t *testing.T) {
	ep := func(primary string, replicas ...string) httpapi.HomeEndpoint {
		return httpapi.HomeEndpoint{Primary: primary, Replicas: replicas}
	}
	cases := []struct {
		name, home, replicas string
		want                 []httpapi.HomeEndpoint
		wantErr              string
	}{
		{name: "single home", home: "http://p0", want: []httpapi.HomeEndpoint{ep("http://p0")}},
		{name: "one primary, two replicas", home: "http://p0", replicas: "r1, r2",
			want: []httpapi.HomeEndpoint{ep("http://p0", "r1", "r2")}},
		{name: "two partitions, no replicas", home: "p0,p1", want: []httpapi.HomeEndpoint{ep("p0"), ep("p1")}},
		{name: "aligned groups", home: "p0,p1", replicas: "r0;r1,r2",
			want: []httpapi.HomeEndpoint{ep("p0", "r0"), ep("p1", "r1", "r2")}},
		{name: "empty group skips a partition", home: "p0,p1", replicas: ";r1",
			want: []httpapi.HomeEndpoint{ep("p0"), ep("p1", "r1")}},
		{name: "short replica list", home: "p0,p1", replicas: "r0",
			want: []httpapi.HomeEndpoint{ep("p0", "r0"), ep("p1")}},
		// The bug this function exists for: the second group used to be
		// dropped while the log still counted its replica.
		{name: "more groups than primaries", home: "http://p0", replicas: "r1;r2", wantErr: "2 partitions' replicas but -home has 1"},
		{name: "empty home", home: "", wantErr: "empty primary"},
		{name: "empty primary in list", home: "p0,,p2", wantErr: "empty primary"},
	}
	for _, c := range cases {
		got, err := parseHome(c.home, c.replicas)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
		} else if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: got %+v, want %+v", c.name, got, c.want)
		}
	}
}
