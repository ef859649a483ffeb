package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// binary is the ufabtopo executable TestMain builds once for the table.
var binary string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "ufabtopo-cli")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binary = filepath.Join(dir, "ufabtopo")
	if out, err := exec.Command("go", "build", "-o", binary, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestCLI pins what an invocation exits with and says first, in the style
// of cmd/ufabsim's table: a dimension or a host index is outside input, so
// a refusal is exit 1 (2 for a usage error) and one line on stderr before
// anything is built or printed — never a builder's panic, never an
// allocation the size of the flag.
func TestCLI(t *testing.T) {
	const usage = "usage: ufabtopo <testbed|fattree|clos|twotier|star> [flags]\n"
	for _, row := range []struct {
		name string
		args []string
		exit int
		// stdout and stderr are the prefix each stream must start with; ""
		// means the stream must be empty.
		stdout, stderr string
	}{
		{name: "no topology", exit: 2, stderr: usage},
		{name: "unknown topology", args: []string{"torus", "-k", "4"}, exit: 2, stderr: usage},
		{name: "testbed", args: []string{"testbed"}, stdout: "nodes: 8 hosts, 10 switches; links: 48 (duplex pairs: 24)\nequal-cost paths S1→S8: 8 (length 6 links)\n"},
		{name: "fattree", args: []string{"fattree", "-k", "4"}, stdout: "nodes: 16 hosts, 20 switches; links: 96 (duplex pairs: 48)\n"},
		{name: "fattree dot", args: []string{"fattree", "-k", "4", "-dot"}, stdout: "graph fabric {\n  rankdir=BT;\n"},
		{name: "clos", args: []string{"clos"}, stdout: "nodes: 512 hosts, 80 switches; links: 1536 (duplex pairs: 768)\n"},
		{name: "twotier", args: []string{"twotier"}, stdout: "nodes: 8 hosts, 5 switches; "},
		{name: "star", args: []string{"star", "-hosts", "3"}, stdout: "nodes: 3 hosts, 1 switches; links: 6 (duplex pairs: 3)\n"},
		{name: "paths", args: []string{"testbed", "-src", "0", "-dst", "7"}, stdout: "nodes: 8 hosts"},
		{name: "fattree odd arity", args: []string{"fattree", "-k", "3"}, exit: 1, stderr: "ufabtopo: fat tree arity 3 must be even and >= 2\n"},
		{name: "fattree zero arity", args: []string{"fattree", "-k", "0"}, exit: 1, stderr: "ufabtopo: fat tree arity 0 must be even and >= 2\n"},
		{name: "fattree negative arity", args: []string{"fattree", "-k", "-2"}, exit: 1, stderr: "ufabtopo: fat tree arity -2 must be even and >= 2\n"},
		{name: "fattree of a million pods", args: []string{"fattree", "-k", "1000000"}, exit: 1, stderr: "ufabtopo: fuzz: fattree of 250001250000000000 nodes exceeds the 512-node budget\n"},
		{name: "fattree just over the budget", args: []string{"fattree", "-k", "12"}, exit: 1, stderr: "ufabtopo: fuzz: fattree of 612 nodes exceeds"},
		{name: "star of 10^8 hosts", args: []string{"star", "-hosts", "100000000"}, exit: 1, stderr: "ufabtopo: fuzz: star of 100000001 nodes exceeds"},
		{name: "star without hosts", args: []string{"star", "-hosts", "-1"}, exit: 1, stderr: "ufabtopo: fuzz: star dimension -1, want >= 1\n"},
		{name: "twotier without aggs", args: []string{"twotier", "-aggs", "0"}, exit: 1, stderr: "ufabtopo: fuzz: twotier dimension 0, want >= 1\n"},
		{name: "clos with 10^9 cores", args: []string{"clos", "-cores", "999999999"}, exit: 1, stderr: "ufabtopo: fuzz: clos core layer of 999999999 nodes exceeds"},
		{name: "negative src", args: []string{"testbed", "-src", "-1"}, exit: 1, stderr: "ufabtopo: -src -1 -dst -1: host index out of range (have 8 hosts)\n"},
		{name: "src without dst", args: []string{"testbed", "-src", "2"}, exit: 1, stderr: "ufabtopo: -src 2 -dst -1: host index out of range"},
		{name: "dst beyond the hosts", args: []string{"testbed", "-src", "1", "-dst", "99"}, exit: 1, stderr: "ufabtopo: -src 1 -dst 99: host index out of range"},
	} {
		t.Run(row.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(binary, row.args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			if _, exited := err.(*exec.ExitError); err != nil && !exited {
				t.Fatalf("ufabtopo %v: %v", row.args, err)
			}
			if code := cmd.ProcessState.ExitCode(); code != row.exit {
				t.Errorf("exit %d, want %d\nstdout: %s\nstderr: %s", code, row.exit, &stdout, &stderr)
			}
			for _, s := range []struct{ stream, got, want string }{{"stdout", stdout.String(), row.stdout}, {"stderr", stderr.String(), row.stderr}} {
				if s.want == "" && s.got != "" {
					t.Errorf("%s not empty:\n%s", s.stream, s.got)
				} else if !strings.HasPrefix(s.got, s.want) {
					t.Errorf("%s starts %q, want %q", s.stream, strings.SplitN(s.got, "\n", 2)[0], s.want)
				}
			}
			if row.exit == 1 && strings.Count(stderr.String(), "\n") != 1 {
				t.Errorf("stderr is not one line:\n%s", &stderr)
			}
		})
	}
}
