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

// binary is the ufabprobe executable TestMain builds once for the table.
var binary string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "ufabprobe-cli")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binary = filepath.Join(dir, "ufabprobe")
	if out, err := exec.Command("go", "build", "-o", binary, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// twoHops is `ufabprobe encode -hops 2`.
const twoHops = "1200000001000000000001002710010000000000000000000000000004000190125c00040000000004000190125c000400000001"

// TestCLI pins what an invocation exits with and says first, in the style
// of cmd/ufabsim's table: hex on the command line or stdin is outside
// input, so a refusal is exit 1 (2 for a usage error) and one line on
// stderr — never a goroutine trace, never a value silently wrapped into its
// wire field.
func TestCLI(t *testing.T) {
	for _, row := range []struct {
		name  string
		args  []string
		stdin string
		exit  int
		// stdout and stderr are the prefix each stream must start with; ""
		// means the stream must be empty.
		stdout, stderr string
	}{
		{name: "no subcommand", exit: 2, stderr: "usage:\n  ufabprobe decode"},
		{name: "unknown subcommand", args: []string{"frob"}, exit: 2, stderr: "usage:\n  ufabprobe decode"},
		{name: "encode", args: []string{"encode", "-hops", "2"}, stdout: twoHops + "\n"},
		{name: "decode", args: []string{"decode", twoHops}, stdout: "kind       probe\nvm-pair    1\n"},
		{name: "decode stdin", args: []string{"decode", "-"}, stdin: twoHops[:40] + "\n" + twoHops[40:] + "\n", stdout: "kind       probe\nvm-pair    1\n"},
		{name: "decode nothing", args: []string{"decode"}, exit: 2, stderr: "usage:\n"},
		{name: "decode not hex", args: []string{"decode", "zz"}, exit: 1, stderr: "bad hex: encoding/hex: invalid byte"},
		{name: "decode truncated", args: []string{"decode", "00"}, exit: 1, stderr: "decode: probe: buffer truncated"},
		{name: "decode missing hop records", args: []string{"decode", twoHops[:len(twoHops)-2]}, exit: 1, stderr: "decode: probe: buffer truncated"},
		{name: "decode unknown kind", args: []string{"decode", "f" + twoHops[1:]}, exit: 1, stderr: "decode: probe: unknown packet kind"},
		{name: "encode too many hops", args: []string{"encode", "-hops", "300"}, exit: 1, stderr: "hop 15: probe: more than MaxHops hop records"},
		{name: "encode negative hops", args: []string{"encode", "-hops", "-5"}, exit: 1, stderr: "-hops -5 is negative"},
		{name: "encode unknown kind", args: []string{"encode", "-kind", "bogus"}, exit: 2, stderr: `unknown kind "bogus"`},
		{name: "encode vm beyond 32 bits", args: []string{"encode", "-vm", "99999999999"}, exit: 1, stderr: "-vm 99999999999 exceeds the field's maximum 4294967295"},
		{name: "encode path beyond 16 bits", args: []string{"encode", "-path", "70000"}, exit: 1, stderr: "-path 70000 exceeds the field's maximum 65535"},
	} {
		t.Run(row.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(binary, row.args...)
			cmd.Stdin, cmd.Stdout, cmd.Stderr = strings.NewReader(row.stdin), &stdout, &stderr
			err := cmd.Run()
			if _, exited := err.(*exec.ExitError); err != nil && !exited {
				t.Fatalf("ufabprobe %v: %v", row.args, err)
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
