package main

// The control-plane subcommands: `ufabsim serve` runs the always-on
// daemon (simulated fabric + reconciler + northbound HTTP API), and
// `ufabsim ctl` is the thin client that talks to it. The client does no
// formatting beyond passing the daemon's JSON through — it exists so the
// smoke tests and operators need nothing beyond the one binary.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"

	"ufab/internal/ctlplane"
)

// serveCmd runs the control-plane daemon in the foreground until
// SIGINT/SIGTERM, then snapshots the store and exits cleanly.
func serveCmd(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7663", "northbound listen address")
	store := fs.String("store", "", "state directory for the WAL + snapshot (empty = in-memory only)")
	seed := fs.Int64("seed", 1, "deterministic seed for the fabric and churn workload")
	churn := fs.Bool("churn", false, "run an open-loop background tenant workload")
	policy := fs.String("policy", "spread", "placement policy (firstfit | spread | subaware)")
	oversub := fs.Float64("oversub", 1.0, "admission oversubscription factor")
	slots := fs.Int("slots", 4, "VM slots per host")
	fs.Parse(args)

	d, err := ctlplane.NewDaemon(ctlplane.DaemonConfig{
		Addr:             *addr,
		StoreDir:         *store,
		Seed:             *seed,
		Churn:            *churn,
		Policy:           *policy,
		Oversubscription: *oversub,
		SlotsPerHost:     *slots,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "ctlplane: shutting down")
		d.Stop()
	}()

	ready := make(chan string, 1)
	go func() {
		bound := <-ready
		fmt.Fprintf(os.Stderr, "ctlplane: serving on http://%s (store=%q churn=%v policy=%s)\n",
			bound, *store, *churn, *policy)
	}()
	if err := d.ListenAndServe(ready); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// ctlCmd dispatches one client verb against a running daemon.
func ctlCmd(args []string) {
	fs := flag.NewFlagSet("ctl", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7663", "daemon address")
	fs.Usage = func() {
		fmt.Fprint(os.Stderr, `usage: ufabsim ctl [-addr host:port] <verb> [args]

verbs:
  status                          control-plane summary (tenants, stats, store seq)
  admit -id n -g bps [-vms k] [-class w] [-backlog b]
                                  admit a tenant (persisted, reconciled)
  evaluate -id n -g bps [-vms k]  what-if placement without committing
  release <id>                    release a tenant
  tenants                         list desired tenant records
  tenant <id>                     one tenant record
  fleet                           per-host slot usage and cordons
  ledger                          subscription summary + Verify()
  drain <host>                    cordon a host and evacuate its tenants
  uncordon <host>                 reopen a drained host
  findings [-follow]              audit findings as JSONL (streamed with -follow)
  metrics                         telemetry registry snapshot
`)
	}
	fs.Parse(args)
	rest := fs.Args()
	if len(rest) == 0 {
		fs.Usage()
		os.Exit(2)
	}
	base := "http://" + *addr
	verb, rest := rest[0], rest[1:]
	switch verb {
	case "status", "tenants", "fleet", "ledger", "metrics":
		ctlGet(base + "/v1/" + verb)
	case "tenant":
		if len(rest) != 1 {
			fatalf("usage: ufabsim ctl tenant <id>")
		}
		ctlGet(base + "/v1/tenants/" + rest[0])
	case "admit", "evaluate":
		af := flag.NewFlagSet("ctl "+verb, flag.ExitOnError)
		id := af.Int("id", 0, "tenant id")
		g := af.Float64("g", 1e9, "bandwidth guarantee (bps)")
		vms := af.Int("vms", 2, "VM count")
		class := af.Int("class", 3, "weight class")
		backlog := af.Int64("backlog", 0, "per-pair backlog bytes")
		af.Parse(rest)
		if *id <= 0 {
			fatalf("ctl %s: -id must be positive", verb)
		}
		ctlPost(base+"/v1/"+verb, map[string]any{
			"id": *id, "guarantee_bps": *g, "vms": *vms,
			"weight_class": *class, "backlog_bytes": *backlog,
		})
	case "release":
		if len(rest) != 1 {
			fatalf("usage: ufabsim ctl release <id>")
		}
		ctlPost(base+"/v1/release", map[string]any{"id": atoiOrDie(rest[0])})
	case "drain", "uncordon":
		if len(rest) != 1 {
			fatalf("usage: ufabsim ctl %s <host>", verb)
		}
		ctlPost(base+"/v1/"+verb, map[string]any{"host": atoiOrDie(rest[0])})
	case "findings":
		url := base + "/v1/findings"
		if len(rest) == 1 && rest[0] == "-follow" {
			url += "?follow=1"
		} else if len(rest) != 0 {
			fatalf("usage: ufabsim ctl findings [-follow]")
		}
		ctlGet(url)
	default:
		fs.Usage()
		os.Exit(2)
	}
}

func atoiOrDie(s string) int {
	n, err := strconv.Atoi(s)
	if err != nil {
		fatalf("not a number: %q", s)
	}
	return n
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// ctlGet streams the response body to stdout (it is already JSON/JSONL);
// non-2xx responses go to stderr and exit non-zero.
func ctlGet(url string) {
	resp, err := http.Get(url)
	if err != nil {
		fatalf("%v", err)
	}
	defer resp.Body.Close()
	ctlDump(resp)
}

func ctlPost(url string, body any) {
	b, err := json.Marshal(body)
	if err != nil {
		fatalf("%v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		fatalf("%v", err)
	}
	defer resp.Body.Close()
	ctlDump(resp)
}

func ctlDump(resp *http.Response) {
	if resp.StatusCode/100 != 2 {
		io.Copy(os.Stderr, resp.Body)
		fmt.Fprintf(os.Stderr, "HTTP %d\n", resp.StatusCode)
		os.Exit(1)
	}
	io.Copy(os.Stdout, resp.Body)
}
