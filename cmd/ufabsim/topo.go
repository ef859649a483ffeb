package main

// `ufabsim topo` inspects the repository's topology builders: it prints
// node/link inventories, enumerates equal-cost paths between hosts, and
// exports Graphviz DOT for visualization.
//
//	ufabsim topo testbed                  # summary of the Fig-10 testbed
//	ufabsim topo fattree -k 4 -dot        # DOT on stdout
//	ufabsim topo clos -cores 16 -src 0 -dst 7

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"ufab/internal/fuzz"
	"ufab/internal/sim"
	"ufab/internal/topo"
)

func topoCmd(args []string) {
	if len(args) < 1 {
		topoUsage()
		os.Exit(2)
	}
	fs := flag.NewFlagSet(args[0], flag.ExitOnError)
	k := fs.Int("k", 4, "fat-tree arity (fattree)")
	cores := fs.Int("cores", 16, "core switches (clos)")
	aggs := fs.Int("aggs", 3, "aggregation switches (twotier)")
	hosts := fs.Int("hosts", 4, "hosts per side/ToR (twotier, star)")
	dot := fs.Bool("dot", false, "emit Graphviz DOT instead of a summary")
	var pathPair [2]int
	fs.IntVar(&pathPair[0], "src", -1, "host index: enumerate paths from")
	fs.IntVar(&pathPair[1], "dst", -1, "host index: enumerate paths to")
	fs.Parse(args[1:])

	g, err := topoBuild(args[0], *k, *cores, *aggs, *hosts)
	if err == errUnknownTopo {
		topoUsage()
		os.Exit(2)
	}
	// -src/-dst ask for a path listing; an index given is an index checked,
	// before anything is printed.
	listing := false
	fs.Visit(func(f *flag.Flag) { listing = listing || f.Name == "src" || f.Name == "dst" })
	if err == nil && listing {
		if n := len(g.Hosts()); pathPair[0] < 0 || pathPair[0] >= n || pathPair[1] < 0 || pathPair[1] >= n {
			err = fmt.Errorf("-src %d -dst %d: host index out of range (have %d hosts)", pathPair[0], pathPair[1], n)
		}
	}
	if err != nil {
		fatalf("ufabsim topo: %v", err)
	}

	if *dot {
		emitDOT(g)
		return
	}
	summarize(g)
	if listing {
		listPaths(g, pathPair[0], pathPair[1])
	}
}

var errUnknownTopo = errors.New("unknown topology kind")

// topoBuild constructs the named topology from the dimension flags, which
// are outside input: each passes the size rule fuzz case files pass
// (fuzz.CheckSize — no dimension below 1, the nodes a flag asks for within
// the budget) before a builder sees it, so no flag value panics a builder or
// allocates without bound.
func topoBuild(kind string, k, cores, aggs, hosts int) (*topo.Graph, error) {
	switch kind {
	case "testbed":
		return topo.NewTestbed(topo.TestbedConfig{}).Graph, nil
	case "fattree":
		if k < 2 || k%2 != 0 {
			return nil, fmt.Errorf("fat tree arity %d must be even and >= 2", k)
		}
		// k³/4 hosts under 5k²/4 switches.
		if err := fuzz.CheckSize(kind, (5+float64(k))*float64(k)*float64(k)/4, k); err != nil {
			return nil, err
		}
		return topo.FatTree(k, topo.Gbps(10), sim.Microsecond).Graph, nil
	case "clos":
		// The paper's fixed 512-host shape; the flag adds the cores.
		if err := fuzz.CheckSize(kind+" core layer", float64(cores), cores); err != nil {
			return nil, err
		}
		return topo.NewClos(topo.Paper512(cores)).Graph, nil
	case "twotier":
		if err := fuzz.CheckSize(kind, 2+float64(aggs)+2*float64(hosts), aggs, hosts); err != nil {
			return nil, err
		}
		return topo.NewTwoTier(aggs, hosts, topo.Gbps(10), sim.Microsecond).Graph, nil
	case "star":
		if err := fuzz.CheckSize(kind, 1+float64(hosts), hosts); err != nil {
			return nil, err
		}
		return topo.NewStar(hosts, topo.Gbps(10), sim.Microsecond).Graph, nil
	}
	return nil, errUnknownTopo
}

func topoUsage() {
	fmt.Fprintln(os.Stderr, `usage: ufabsim topo <testbed|fattree|clos|twotier|star> [flags]
flags: -k N | -cores N | -aggs N | -hosts N | -dot | -src I -dst J`)
}

func summarize(g *topo.Graph) {
	hosts, switches := 0, 0
	for _, n := range g.Nodes {
		if n.Kind == topo.Host {
			hosts++
		} else {
			switches++
		}
	}
	fmt.Printf("nodes: %d hosts, %d switches; links: %d (duplex pairs: %d)\n",
		hosts, switches, len(g.Links), len(g.Links)/2)
	if err := g.Validate(); err != nil {
		fmt.Printf("VALIDATE FAILED: %v\n", err)
		return
	}
	hs := g.Hosts()
	if len(hs) >= 2 {
		p := g.Paths(hs[0], hs[len(hs)-1], 0)
		fmt.Printf("equal-cost paths %s→%s: %d (length %d links)\n",
			g.Node(hs[0]).Name, g.Node(hs[len(hs)-1]).Name, len(p), pathLen(p))
		fmt.Printf("diameter baseRTT (1500B MTU): %v\n", g.Diameter(1500))
	}
}

func pathLen(p []topo.Path) int {
	if len(p) == 0 {
		return 0
	}
	return len(p[0])
}

func listPaths(g *topo.Graph, srcIdx, dstIdx int) {
	hs := g.Hosts()
	src, dst := hs[srcIdx], hs[dstIdx]
	paths := g.Paths(src, dst, 0)
	fmt.Printf("%d equal-cost paths %s → %s:\n", len(paths), g.Node(src).Name, g.Node(dst).Name)
	for i, p := range paths {
		fmt.Printf("  [%d]", i)
		fmt.Printf(" %s", g.Node(g.PathSrc(p)).Name)
		for _, lid := range p {
			fmt.Printf(" → %s", g.Node(g.Link(lid).Dst).Name)
		}
		fmt.Printf("   (baseRTT %v)\n", g.BaseRTT(p, 1500))
	}
}

func emitDOT(g *topo.Graph) {
	fmt.Println("graph fabric {")
	fmt.Println("  rankdir=BT;")
	for _, n := range g.Nodes {
		shape := "box"
		if n.Kind == topo.Host {
			shape = "ellipse"
		}
		fmt.Printf("  n%d [label=%q shape=%s];\n", n.ID, n.Name, shape)
	}
	for _, l := range g.Links {
		if l.ID < l.Reverse { // one edge per duplex pair
			fmt.Printf("  n%d -- n%d [label=\"%.0fG\"];\n", l.Src, l.Dst, l.Capacity/1e9)
		}
	}
	fmt.Println("}")
}
