package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ufab/internal/experiments"
)

// binary is the ufabsim executable TestMain builds once for the table.
// sabotaged is the same program built from a source overlay (nothing in the
// tree changes) in which one claim's operator is flipped — fig4's "μFAB's
// tail is below PWC's" — and the registry is cut to three cheap experiments:
// `check` always replays the whole registry, 8 s a mode at full size, and
// what it does with a false claim does not depend on how many it replayed.
var binary, sabotaged string

// sabotagedRegistry is what the sabotaged binary's registry is cut to.
var sabotagedRegistry = map[string]bool{"fig3": true, "fig4": true, "tab4": true}

// sabotage is the file the overlay adds to internal/experiments.
var sabotage = fmt.Sprintf(`package experiments

func init() {
	keep := %#v
	kept := All[:0]
	for _, e := range All {
		if keep[e.ID] {
			kept = append(kept, e)
		}
	}
	All = kept
	Find("fig4").Claims[0].Op = ">="
}
`, sabotagedRegistry)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "ufabsim-cli")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binary = filepath.Join(dir, "ufabsim")
	if out, err := exec.Command("go", "build", "-o", binary, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	// The overlay adds a file after every other of the package, so its init
	// runs last.
	extra, _ := filepath.Abs("../../internal/experiments/zz_sabotage.go")
	overlay, _ := json.Marshal(map[string]any{"Replace": map[string]string{extra: filepath.Join(dir, "sabotage.go")}})
	os.WriteFile(filepath.Join(dir, "sabotage.go"), []byte(sabotage), 0o644)
	os.WriteFile(filepath.Join(dir, "overlay.json"), overlay, 0o644)
	sabotaged = filepath.Join(dir, "ufabsim_sabotaged")
	if out, err := exec.Command("go", "build", "-overlay", filepath.Join(dir, "overlay.json"), "-o", sabotaged, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build -overlay: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// ufabsim runs the binary in dir and returns its exit code and both streams.
func ufabsim(t *testing.T, dir string, args ...string) (int, string, string) {
	t.Helper()
	return invoke(t, binary, dir, "", args...)
}

func invoke(t *testing.T, exe, dir, stdin string, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Dir, cmd.Stdin, cmd.Stdout, cmd.Stderr = dir, strings.NewReader(stdin), &stdout, &stderr
	err := cmd.Run()
	if _, exited := err.(*exec.ExitError); err != nil && !exited {
		t.Fatalf("ufabsim %v: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), stdout.String(), stderr.String()
}

// withoutWallTime drops the one report line that differs between two runs.
func withoutWallTime(s string) string {
	var keep []string
	for _, line := range strings.Split(s, "\n") {
		if !strings.HasPrefix(line, "-- wall time") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// TestCLI pins what an invocation exits with and says first — above all
// that nothing a flag, a file or stdin can carry panics the process: a
// refusal is exit 1 (2 for a usage error) and one line on stderr, never a
// goroutine trace, never an allocation the size of a flag, never a value
// silently wrapped into its wire field.
func TestCLI(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	hostileCase := func(name, topology string) string {
		return write(name, `{"name":"hostile","seed":1,"topology":`+topology+`,"horizon_ps":2000000000,"tenants":[]}`)
	}
	malformed := write("malformed.json", `{not json`)
	negativeTime := write("negative-time.json", `{"name":"neg","events":[{"at_ps":-5,"kind":"link-down","link":0}]}`)
	// Link, node and tenant ids far outside the testbed: each event must be
	// logged as rejected, none may index a table.
	outOfRange := write("out-of-range.json", `{"name":"out-of-range","events":[
		{"at_ps":1000000000,"kind":"link-down","link":99999},
		{"at_ps":1000000000,"kind":"link-down","link":-7},
		{"at_ps":2000000000,"kind":"node-crash","node":99999},
		{"at_ps":2000000000,"kind":"agent-restart","node":-3},
		{"at_ps":3000000000,"kind":"link-degrade","link":4242,"degradation":{"capacity_scale":0.5}},
		{"at_ps":3000000000,"kind":"tenant-arrive","tenant":{"vf":77,"guarantee_bps":1e9,"weight_class":0,"pairs":[{"src":99999,"dst":-1}]}},
		{"at_ps":4000000000,"kind":"tenant-depart","vf":31337}]}`)
	// Gray-fault delays the simulator cannot schedule: one would deliver a
	// packet before it left, the other overflows the link's propagation delay.
	negativeDelay := write("negative-delay.json", `{"name":"neg","events":[{"at_ps":1000000,"kind":"link-degrade","link":0,"duplex":true,"degradation":{"extra_delay_ps":-1000000000}}]}`)
	hugeDelay := write("huge-delay.json", `{"name":"huge","events":[{"at_ps":1000000,"kind":"link-degrade","link":0,"duplex":true,"degradation":{"extra_delay_ps":9223372036854775000}}]}`)
	notADir := write("file", "")

	// allRejected checks that a chaoslab run logged n chaos events, each
	// of them rejected.
	allRejected := func(n int) func(t *testing.T, stdout, _ string) {
		return func(t *testing.T, stdout, _ string) {
			events, rejected := strings.Count(stdout, "\nchaos: "), strings.Count(stdout, "[REJECTED]\n")
			if events != n || rejected != n {
				t.Errorf("%d chaos events logged, %d rejected; want %d and %d\n%s", events, rejected, n, n, stdout)
			}
		}
	}

	var list strings.Builder
	for _, e := range experiments.All {
		fmt.Fprintf(&list, "%-8s %s\n", e.ID, e.Title)
	}
	_, plainFig4, _ := ufabsim(t, dir, "-quick", "run", "fig4")

	// The committed golden cut to the sabotaged binary's experiments:
	// its numbers match, so only the flipped claim can fail the check.
	g, err := experiments.LoadGolden("../../golden_metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	for id := range g.Experiments {
		if !sabotagedRegistry[id] {
			delete(g.Experiments, id)
		}
	}
	golden := filepath.Join(dir, "golden3.json")
	if err := g.Save(golden); err != nil {
		t.Fatal(err)
	}
	recorded, _ := os.ReadFile(golden)
	const falseClaim = "fig4: claim fig4.ufab-tail-below-pwc: ufab.tail_us.10 = 140.144796 is not >= 1 × pwc.tail_us.10 = 257.4832\n"
	// twoHops is `ufabsim probe encode -hops 2`.
	const twoHops = "1200000001000000000001002710010000000000000000000000000004000190125c00040000000004000190125c000400000001"
	const topoUsage = "usage: ufabsim topo <testbed|fattree|clos|twotier|star> [flags]\n"

	for _, row := range []struct {
		name string
		// sabotaged runs the binary with fig4's claim flipped instead.
		sabotaged bool
		args      []string
		stdin     string
		exit      int
		// stdout and stderr are the prefix each stream must start with; ""
		// means the stream must be empty, "*" that it is not looked at.
		stdout, stderr string
		// check, if set, sees the whole of both streams.
		check func(t *testing.T, stdout, stderr string)
	}{
		{name: "list", args: []string{"list"}, stdout: list.String()},
		{name: "no subcommand", exit: 2, stderr: "ufabsim — uFAB"},
		{name: "unknown subcommand", args: []string{"frobnicate"}, exit: 2, stderr: "ufabsim — uFAB"},
		{name: "run unknown experiment", args: []string{"run", "nope"}, exit: 1, stderr: `unknown experiment "nope"`},
		{name: "trace unknown experiment", args: []string{"trace", "nope"}, exit: 1, stderr: `unknown experiment "nope"`},
		{name: "trace unknown format", args: []string{"trace", "-format", "bogus", "fig19"}, exit: 2, stderr: `unknown trace format "bogus"`},
		{name: "scenario missing", args: []string{"-scenario", filepath.Join(dir, "absent.json"), "run", "chaoslab"}, exit: 1, stderr: "read scenario: open "},
		{name: "scenario malformed", args: []string{"-scenario", malformed, "run", "chaoslab"}, exit: 1, stderr: "chaos: parse scenario: "},
		{name: "scenario negative time", args: []string{"-scenario", negativeTime, "run", "chaoslab"}, exit: 1, stderr: "chaos: event 0 at negative time"},
		{name: "scenario ids out of range", args: []string{"-quick", "-scenario", outOfRange, "run", "chaoslab"},
			stdout: "== chaoslab: ", check: allRejected(7)},
		{name: "scenario negative delay", args: []string{"-quick", "-scenario", negativeDelay, "run", "chaoslab"},
			stdout: "== chaoslab: ", check: allRejected(1)},
		{name: "scenario overflowing delay", args: []string{"-quick", "-shards", "4", "-scenario", hugeDelay, "run", "chaoslab"},
			stdout: "== chaoslab: ", check: allRejected(1)},
		{name: "replay negative capacity", args: []string{"fuzz", "-replay", hostileCase("neg.json", `{"kind":"star","hosts":4,"capacity_gbps":-5}`)},
			exit: 1, stderr: filepath.Join(dir, "neg.json") + ": fuzz: negative capacity_gbps"},
		{name: "replay two billion hosts", args: []string{"fuzz", "-replay", hostileCase("huge.json", `{"kind":"star","hosts":2000000000}`)},
			exit: 1, stderr: filepath.Join(dir, "huge.json") + ": fuzz: star of 2000000001 nodes exceeds"},
		{name: "replay million-pod clos", args: []string{"fuzz", "-replay", hostileCase("pods.json", `{"kind":"clos","pods":1000000,"tors_per_pod":2,"aggs_per_pod":2,"cores":2,"hosts_per_tor":2}`)},
			exit: 1, stderr: filepath.Join(dir, "pods.json") + ": fuzz: clos of 8000002 nodes exceeds"},
		{name: "replay negative clos dimension", args: []string{"fuzz", "-replay", hostileCase("degenerate.json", `{"kind":"clos","pods":2,"tors_per_pod":-1,"aggs_per_pod":2,"cores":2,"hosts_per_tor":2}`)},
			exit: 1, stderr: filepath.Join(dir, "degenerate.json") + ": fuzz: clos dimension -1"},
		{name: "corpus with a hostile case", args: []string{"fuzz", "-seeds", "0", "-corpus", dir}, exit: 1, stdout: "*", stderr: "FAIL ",
			check: func(t *testing.T, _, stderr string) {
				if strings.Contains(stderr, "goroutine ") {
					t.Errorf("goroutine trace on stderr:\n%s", stderr)
				}
			}},
		{name: "csv into a file", args: []string{"-quick", "-csv", filepath.Join(notADir, "curves"), "run", "fig12"}, exit: 1, stdout: "== fig12: ", stderr: "mkdir "},
		{name: "negative shards, jobs and zero repeat", args: []string{"-quick", "-shards", "-1", "-jobs", "-3", "-repeat", "0", "run", "fig4"},
			stdout: "== fig4: ", check: func(t *testing.T, stdout, _ string) {
				if withoutWallTime(stdout) != withoutWallTime(plainFig4) {
					t.Errorf("differs from a run without the flags:\n%s\nvs\n%s", stdout, plainFig4)
				}
			}},
		{name: "false claim fails check", sabotaged: true, args: []string{"check", "-golden", golden}, exit: 1, stderr: falseClaim},
		{name: "false claim fails check -telemetry", sabotaged: true, args: []string{"check", "-golden", golden, "-telemetry"}, exit: 1, stderr: falseClaim},
		{name: "false claim fails check -audit", sabotaged: true, args: []string{"check", "-golden", golden, "-audit"}, exit: 1, stderr: falseClaim},
		{name: "false claim fails check -shards 4", sabotaged: true, args: []string{"check", "-golden", golden, "-shards", "4"}, exit: 1, stderr: falseClaim},
		{name: "false claim is not recorded", sabotaged: true, args: []string{"check", "-golden", golden, "-update"}, exit: 1, stderr: falseClaim,
			check: func(t *testing.T, _, stderr string) {
				if now, _ := os.ReadFile(golden); !bytes.Equal(now, recorded) || !strings.HasSuffix(stderr, "golden3.json not recorded\n") {
					t.Errorf("check -update rewrote the golden file or did not say it kept it:\n%s", stderr)
				}
			}},
		{name: "probe no subcommand", args: []string{"probe"}, exit: 2, stderr: "usage:\n  ufabsim probe decode"},
		{name: "probe unknown subcommand", args: []string{"probe", "frob"}, exit: 2, stderr: "usage:\n  ufabsim probe decode"},
		{name: "probe encode", args: []string{"probe", "encode", "-hops", "2"}, stdout: twoHops + "\n"},
		{name: "probe decode", args: []string{"probe", "decode", twoHops}, stdout: "kind       probe\nvm-pair    1\n"},
		{name: "probe decode stdin", args: []string{"probe", "decode", "-"}, stdin: twoHops[:40] + "\n" + twoHops[40:] + "\n", stdout: "kind       probe\nvm-pair    1\n"},
		{name: "probe decode nothing", args: []string{"probe", "decode"}, exit: 2, stderr: "usage:\n"},
		{name: "probe decode not hex", args: []string{"probe", "decode", "zz"}, exit: 1, stderr: "bad hex: encoding/hex: invalid byte"},
		{name: "probe decode truncated", args: []string{"probe", "decode", "00"}, exit: 1, stderr: "decode: probe: buffer truncated"},
		{name: "probe decode missing hop records", args: []string{"probe", "decode", twoHops[:len(twoHops)-2]}, exit: 1, stderr: "decode: probe: buffer truncated"},
		{name: "probe decode unknown kind", args: []string{"probe", "decode", "f" + twoHops[1:]}, exit: 1, stderr: "decode: probe: unknown packet kind"},
		{name: "probe encode too many hops", args: []string{"probe", "encode", "-hops", "300"}, exit: 1, stderr: "hop 15: probe: more than MaxHops hop records"},
		{name: "probe encode negative hops", args: []string{"probe", "encode", "-hops", "-5"}, exit: 1, stderr: "-hops -5 is negative"},
		{name: "probe encode unknown kind", args: []string{"probe", "encode", "-kind", "bogus"}, exit: 2, stderr: `unknown kind "bogus"`},
		{name: "probe encode vm beyond 32 bits", args: []string{"probe", "encode", "-vm", "99999999999"}, exit: 1, stderr: "-vm 99999999999 exceeds the field's maximum 4294967295"},
		{name: "probe encode path beyond 16 bits", args: []string{"probe", "encode", "-path", "70000"}, exit: 1, stderr: "-path 70000 exceeds the field's maximum 65535"},
		{name: "topo no topology", args: []string{"topo"}, exit: 2, stderr: topoUsage},
		{name: "topo unknown topology", args: []string{"topo", "torus", "-k", "4"}, exit: 2, stderr: topoUsage},
		{name: "topo testbed", args: []string{"topo", "testbed"}, stdout: "nodes: 8 hosts, 10 switches; links: 48 (duplex pairs: 24)\nequal-cost paths S1→S8: 8 (length 6 links)\n"},
		{name: "topo fattree", args: []string{"topo", "fattree", "-k", "4"}, stdout: "nodes: 16 hosts, 20 switches; links: 96 (duplex pairs: 48)\n"},
		{name: "topo fattree dot", args: []string{"topo", "fattree", "-k", "4", "-dot"}, stdout: "graph fabric {\n  rankdir=BT;\n"},
		{name: "topo clos", args: []string{"topo", "clos"}, stdout: "nodes: 512 hosts, 80 switches; links: 1536 (duplex pairs: 768)\n"},
		{name: "topo twotier", args: []string{"topo", "twotier"}, stdout: "nodes: 8 hosts, 5 switches; "},
		{name: "topo star", args: []string{"topo", "star", "-hosts", "3"}, stdout: "nodes: 3 hosts, 1 switches; links: 6 (duplex pairs: 3)\n"},
		{name: "topo paths", args: []string{"topo", "testbed", "-src", "0", "-dst", "7"}, stdout: "nodes: 8 hosts"},
		{name: "topo fattree odd arity", args: []string{"topo", "fattree", "-k", "3"}, exit: 1, stderr: "ufabsim topo: fat tree arity 3 must be even and >= 2\n"},
		{name: "topo fattree zero arity", args: []string{"topo", "fattree", "-k", "0"}, exit: 1, stderr: "ufabsim topo: fat tree arity 0 must be even and >= 2\n"},
		{name: "topo fattree negative arity", args: []string{"topo", "fattree", "-k", "-2"}, exit: 1, stderr: "ufabsim topo: fat tree arity -2 must be even and >= 2\n"},
		{name: "topo fattree of a million pods", args: []string{"topo", "fattree", "-k", "1000000"}, exit: 1, stderr: "ufabsim topo: fuzz: fattree of 250001250000000000 nodes exceeds the 512-node budget\n"},
		{name: "topo fattree just over the budget", args: []string{"topo", "fattree", "-k", "12"}, exit: 1, stderr: "ufabsim topo: fuzz: fattree of 612 nodes exceeds"},
		{name: "topo star of 10^8 hosts", args: []string{"topo", "star", "-hosts", "100000000"}, exit: 1, stderr: "ufabsim topo: fuzz: star of 100000001 nodes exceeds"},
		{name: "topo star without hosts", args: []string{"topo", "star", "-hosts", "-1"}, exit: 1, stderr: "ufabsim topo: fuzz: star dimension -1, want >= 1\n"},
		{name: "topo twotier without aggs", args: []string{"topo", "twotier", "-aggs", "0"}, exit: 1, stderr: "ufabsim topo: fuzz: twotier dimension 0, want >= 1\n"},
		{name: "topo clos with 10^9 cores", args: []string{"topo", "clos", "-cores", "999999999"}, exit: 1, stderr: "ufabsim topo: fuzz: clos core layer of 999999999 nodes exceeds"},
		{name: "topo negative src", args: []string{"topo", "testbed", "-src", "-1"}, exit: 1, stderr: "ufabsim topo: -src -1 -dst -1: host index out of range (have 8 hosts)\n"},
		{name: "topo src without dst", args: []string{"topo", "testbed", "-src", "2"}, exit: 1, stderr: "ufabsim topo: -src 2 -dst -1: host index out of range"},
		{name: "topo dst beyond the hosts", args: []string{"topo", "testbed", "-src", "1", "-dst", "99"}, exit: 1, stderr: "ufabsim topo: -src 1 -dst 99: host index out of range"},
	} {
		t.Run(row.name, func(t *testing.T) {
			// Every row is its own process over files written above, so
			// rows overlap: the slowest (topo clos, all 512² host pairs
			// for the diameter) no longer adds to the rest.
			t.Parallel()
			exe := binary
			if row.sabotaged {
				exe = sabotaged
			}
			code, stdout, stderr := invoke(t, exe, dir, row.stdin, row.args...)
			if code != row.exit {
				t.Errorf("exit %d, want %d\nstdout: %s\nstderr: %s", code, row.exit, stdout, stderr)
			}
			for _, s := range []struct{ stream, got, want string }{{"stdout", stdout, row.stdout}, {"stderr", stderr, row.stderr}} {
				switch {
				case s.want == "*":
				case s.want == "" && s.got != "":
					t.Errorf("%s not empty:\n%s", s.stream, s.got)
				case !strings.HasPrefix(s.got, s.want):
					t.Errorf("%s starts %q, want %q", s.stream, strings.SplitN(s.got, "\n", 2)[0], s.want)
				}
			}
			// A refusal is one line, whatever was refused.
			if row.exit == 1 && row.check == nil && strings.Count(stderr, "\n") != 1 {
				t.Errorf("stderr is not one line:\n%s", stderr)
			}
			if row.check != nil {
				row.check(t, stdout, stderr)
			}
		})
	}
}
