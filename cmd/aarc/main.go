// Command aarc runs a resource-configuration search on one of the built-in
// serverless workflows (or prints its DAG) using AARC or one of the
// baselines, and reports the chosen per-function configuration, search
// statistics and a validation run. It is a thin shell over the public aarc
// facade.
//
// Usage:
//
//	aarc -workload chatbot -method aarc
//	aarc -workload video-analysis -method bo -seed 7
//	aarc -list-methods                        # print the method registry
//	aarc -workload chatbot -timeout 30s       # bound the search wall time
//	aarc -workload ml-pipeline -dot           # emit Graphviz DOT and exit
//	aarc -workload chatbot -trace trace.csv   # dump the sampling trace
//	aarc -synth layered -synth-nodes 10000    # generate a synthetic workflow
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"

	"aarc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("aarc: ")

	var (
		specPath     = flag.String("spec", "", "path to a JSON workflow definition (overrides -workload)")
		workloadName = flag.String("workload", "chatbot", "workload: chatbot | ml-pipeline | video-analysis")
		synthTopo    = flag.String("synth", "", "generate a synthetic workflow instead: layered | fanout | chain | diamond | random")
		synthNodes   = flag.Int("synth-nodes", 1000, "node count for -synth")
		synthSeed    = flag.Uint64("synth-seed", 1, "generator seed for -synth (same seed, same workflow)")
		synthDegree  = flag.Int("synth-degree", 0, "extra-edge density for -synth (0 = family default)")
		synthHeavy   = flag.Bool("synth-heavy", false, "draw heavy-tailed (Pareto) work multipliers for -synth")
		methodName   = flag.String("method", "aarc", "search method from the registry (see -list-methods)")
		seed         = flag.Uint64("seed", 42, "random seed for the simulator and searcher")
		hostCores    = flag.Float64("cores", 96, "host CPU capacity shared by concurrent containers")
		sloMS        = flag.Float64("slo-ms", 0, "override the workload SLO in milliseconds")
		timeout      = flag.Duration("timeout", 0, "cancel the search after this wall-clock duration (0 = none)")
		maxSamples   = flag.Int("max-samples", 0, "stop the search after this many samples (0 = unlimited)")
		tracePath    = flag.String("trace", "", "write the sampling trace as CSV to this file")
		dotOut       = flag.Bool("dot", false, "print the workflow DAG in Graphviz DOT format and exit")
		listMethods  = flag.Bool("list-methods", false, "print the registered search methods and exit")
		validateRuns = flag.Int("validate", 5, "number of validation executions of the chosen config")
		verbose      = flag.Bool("verbose", false, "print the per-node execution breakdown of a validation run")
	)
	flag.Parse()

	if *listMethods {
		fmt.Print(methodList())
		return
	}

	spec, err := loadSpec(*specPath, *workloadName)
	if *synthTopo != "" {
		spec, err = aarc.ScaleWorkload(aarc.ScaleOptions{
			Topology:  aarc.ScaleTopology(*synthTopo),
			Nodes:     *synthNodes,
			Seed:      *synthSeed,
			Degree:    *synthDegree,
			HeavyTail: *synthHeavy,
		})
	}
	if err != nil {
		log.Fatal(err)
	}
	if *sloMS > 0 {
		spec.SLOMS = *sloMS
	}

	if *dotOut {
		fmt.Print(aarc.DOT(spec))
		return
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	rec, err := aarc.Configure(ctx, spec,
		aarc.WithMethod(*methodName),
		aarc.WithSeed(*seed),
		aarc.WithHostCores(*hostCores),
		aarc.WithBudget(aarc.Budget{MaxSamples: *maxSamples}),
	)
	if err != nil {
		if rec == nil || !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
			log.Fatal(err)
		}
		log.Printf("search stopped early (%v); reporting the partial result", err)
	}

	fmt.Printf("workload     : %s (SLO %.0f s, %d functions, %d nodes)\n",
		spec.Name, spec.SLOMS/1000, len(spec.FunctionGroups()), spec.G.NumNodes())
	fmt.Printf("method       : %s\n", rec.Method)
	fmt.Printf("samples      : %d\n", rec.Trace.Len())
	fmt.Printf("search time  : %.1f s (simulated)\n", rec.Trace.TotalRuntimeMS()/1000)
	fmt.Printf("search cost  : %.1fk\n", rec.Trace.TotalCost()/1000)
	fmt.Println("configuration:")
	for _, g := range rec.Assignment.Keys() {
		fmt.Printf("  %-12s %s\n", g, rec.Assignment[g])
	}

	if *validateRuns > 0 {
		results, err := rec.Validate(*validateRuns)
		if err != nil {
			log.Fatal(err)
		}
		var me2e, mcost float64
		for _, res := range results {
			me2e += res.E2EMS
			mcost += res.Cost
		}
		me2e /= float64(len(results))
		mcost /= float64(len(results))
		status := "compliant"
		if me2e > spec.SLOMS {
			status = "VIOLATED"
		}
		fmt.Printf("validation   : avg e2e %.1f s over %d runs (%s), avg cost %.1fk\n",
			me2e/1000, *validateRuns, status, mcost/1000)

		if *verbose {
			printNodeBreakdown(spec, results[len(results)-1])
		}
	}

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := rec.Trace.WriteCSV(f); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace        : %s (%d samples)\n", *tracePath, rec.Trace.Len())
	}
}

// methodList renders the registry: one "name  vN  DisplayName" line per
// method (the version is the implementation version the serving layer
// folds into recommendation fingerprints).
func methodList() string {
	out := ""
	for _, m := range aarc.Methods() {
		s, err := aarc.NewSearcher(m, 0)
		if err != nil {
			continue
		}
		v, err := aarc.MethodVersion(m)
		if err != nil {
			continue
		}
		out += fmt.Sprintf("%-8s v%-3d %s\n", m, v, s.Name())
	}
	return out
}

// loadSpec reads a JSON workflow definition when a path is given, otherwise
// a built-in workload by name.
func loadSpec(specPath, workloadName string) (*aarc.Spec, error) {
	if specPath == "" {
		return aarc.Workload(workloadName)
	}
	return aarc.LoadSpec(specPath)
}

// printNodeBreakdown renders one execution's per-node timeline in topo
// order: start/finish on the simulated clock, billed duration, cold-start
// share, configuration and cost.
func printNodeBreakdown(spec *aarc.Spec, res aarc.Result) {
	topo, err := spec.G.TopoSort()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("per-node breakdown (last validation run):")
	fmt.Printf("  %-14s %-10s %9s %9s %9s %7s %10s %s\n",
		"node", "group", "start_s", "finish_s", "dur_s", "cold_s", "cost_k", "config")
	for _, id := range topo {
		nr := res.Node(id)
		if nr.Skipped {
			fmt.Printf("  %-14s %-10s %9s %9s %9s %7s %10s %s\n",
				id, nr.Group, "-", "-", "-", "-", "-", "skipped")
			continue
		}
		flag := ""
		if nr.OOM {
			flag = "  OOM"
		}
		fmt.Printf("  %-14s %-10s %9.2f %9.2f %9.2f %7.2f %10.1f %s%s\n",
			id, nr.Group, nr.StartMS/1000, nr.FinishMS/1000, nr.RuntimeMS/1000,
			nr.ColdStartMS/1000, nr.Cost/1000, nr.Config, flag)
	}
}
