// Command vsoctrace runs the paper's §2.3 measurement study: it traces
// shared-memory usage of the emerging-app workloads on a physical-device
// model, Google Android Emulator, and QEMU-KVM, reproducing the data behind
// Figure 4 (region-size CDF), Figure 5 (coherence cost CDF), and Figure 6
// (slack-interval CDF), plus Table 1 and the API-call-rate observations.
//
// Usage:
//
//	vsoctrace [-fig 0|4|5|6] [-duration 30s] [-apps 10] [-seed 1]
//
// -fig 0 (default) prints the whole study.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

func main() {
	fig := flag.Int("fig", 0, "figure to print (0 = full study, 4, 5, or 6)")
	duration := flag.Duration("duration", 30*time.Second, "simulated duration per app")
	apps := flag.Int("apps", 10, "apps per category")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "Usage of %s:\n", os.Args[0])
		flag.PrintDefaults()
		// Same generated experiment list vsocbench prints, so the two
		// tools' usage text never drifts apart again.
		fmt.Fprintf(out, "\nThis tool covers the §2.3 measurement study; the §5 evaluation\nexperiments live in vsocbench (-exp %s):\n%s",
			experiments.ExperimentNames(), experiments.UsageText())
	}
	flag.Parse()

	// Validate the figure selection before running the study — the study is
	// the expensive part, and a typo should fail fast with usage, not after
	// half a minute of simulation.
	switch *fig {
	case 0, 4, 5, 6:
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %d (want 0, 4, 5, or 6)\n", *fig)
		flag.Usage()
		os.Exit(2)
	}
	cfg := experiments.Config{Duration: *duration, AppsPerCategory: *apps, Seed: *seed}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "vsoctrace:", err)
		flag.Usage()
		os.Exit(2)
	}
	study := experiments.RunStudy(cfg)

	switch *fig {
	case 0:
		fmt.Print(experiments.FormatStudy(study))
	case 4:
		printCDFs(study, "Figure 4: shared memory region sizes (MiB)",
			func(t *experiments.PlatformTrace) *metrics.Distribution { return &t.RegionSizes })
	case 5:
		printCDFs(study, "Figure 5: coherence maintenance cost (ms)",
			func(t *experiments.PlatformTrace) *metrics.Distribution { return &t.CoherenceCost })
	case 6:
		printCDFs(study, "Figure 6: slack intervals (ms)",
			func(t *experiments.PlatformTrace) *metrics.Distribution { return &t.SlackIntervals })
	}
}

func printCDFs(study *experiments.StudyResult, title string,
	pick func(*experiments.PlatformTrace) *metrics.Distribution) {

	fmt.Println(title)
	for i := range study.Traces {
		tr := &study.Traces[i]
		d := pick(tr)
		if d.Count() == 0 {
			fmt.Printf("\n%s: no samples\n", tr.Platform)
			continue
		}
		fmt.Printf("\n%s (n=%d, mean=%.2f):\n", tr.Platform, d.Count(), d.Mean())
		for _, p := range d.CDF(20) {
			fmt.Printf("  F=%.2f  %8.2f\n", p.F, p.Value)
		}
	}
}
