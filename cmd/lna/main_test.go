package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestSplitCommand(t *testing.T) {
	cases := []struct {
		name string
		in   []string
		cmd  string
		rest []string
	}{
		{"flags after", []string{"qual", "-json", "f.mc"}, "qual", []string{"-json", "f.mc"}},
		{"flags before", []string{"-json", "qual", "f.mc"}, "qual", []string{"-json", "f.mc"}},
		{"flags both sides", []string{"-json", "qual", "-params", "f.mc"}, "qual", []string{"-json", "-params", "f.mc"}},
		{"no flags", []string{"fmt", "f.mc"}, "fmt", []string{"f.mc"}},
		{"run with negative arg", []string{"run", "f.mc", "-3"}, "run", []string{"f.mc", "-3"}},
		{"value flag before", []string{"-trace-out", "t.json", "check", "f.mc"}, "check", []string{"-trace-out", "t.json", "f.mc"}},
		{"value flag with equals before", []string{"-trace-out=t.json", "check", "f.mc"}, "check", []string{"-trace-out=t.json", "f.mc"}},
		{"value flag then bool flag before", []string{"-trace-out", "t.json", "-json", "qual", "f.mc"}, "qual", []string{"-trace-out", "t.json", "-json", "f.mc"}},
		{"typo stays the subcommand", []string{"-trace-out", "t.json", "chek", "f.mc"}, "t.json", []string{"-trace-out", "chek", "f.mc"}},
		{"gateway with backends", []string{"gateway", "-backends", "http://a,http://b"}, "gateway", []string{"-backends", "http://a,http://b"}},
		{"remote flag before subcommand", []string{"-remote", "http://h:1", "check", "f.mc"}, "check", []string{"-remote", "http://h:1", "f.mc"}},
		{"top with flags", []string{"top", "-remote", "http://h:1", "-json"}, "top", []string{"-remote", "http://h:1", "-json"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmd, rest, err := splitCommand(tc.in)
			if err != nil {
				t.Fatalf("splitCommand(%v) error: %v", tc.in, err)
			}
			if cmd != tc.cmd || !reflect.DeepEqual(rest, tc.rest) {
				t.Errorf("splitCommand(%v) = %q, %v; want %q, %v", tc.in, cmd, rest, tc.cmd, tc.rest)
			}
		})
	}
}

func TestSplitCommandErrors(t *testing.T) {
	_, _, err := splitCommand([]string{"-json"})
	if err == nil {
		t.Fatal("expected an error for a flag with no subcommand")
	}
	// The error must name the stranded flag and the valid subcommands.
	for _, want := range []string{"-json", "qual"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q lacks %q", err, want)
		}
	}

	if _, _, err := splitCommand(nil); err == nil {
		t.Fatal("expected an error for an empty command line")
	}
}
