// TeraGrid: the full Figure 3 deployment — ten resources at six sites
// running 1,060 reporters per hour, verified against the TeraGrid Hosting
// Environment agreement, with availability archived every ten minutes.
//
//	go run ./examples/teragrid            # four virtual hours
//	go run ./examples/teragrid -hours 12
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"inca/internal/agreement"
	"inca/internal/consumer"
	"inca/internal/core"
	"inca/internal/gridsim"
)

func main() {
	hours := flag.Int("hours", 4, "virtual hours of operation to replay")
	seed := flag.Int64("seed", 2004, "simulation seed")
	htmlOut := flag.String("html", "", "write the status page HTML here")
	flag.Parse()

	d, err := core.NewTeraGridDeployment(core.Options{
		Seed:         *seed,
		Availability: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	start := d.Clock.Now()
	fmt.Printf("deployment: %d resources, %d reporter series/hour (Table 2)\n",
		len(d.Agents), d.TotalSeries())

	// A mid-run incident: NCSA's SRB server goes down for 90 minutes.
	ncsa, _ := d.Grid.Resource("tg-login1.ncsa.teragrid.org")
	ncsa.AddOutage(gridsim.Outage{
		Service: "srb",
		From:    start.Add(90 * time.Minute), To: start.Add(3 * time.Hour),
		Reason: "SRB server out of file descriptors",
	})

	// Operators get transition notifications as verification cycles run.
	// The first hour is ramp-up (each reporter fires once per hour at a
	// random offset), so notifications begin after full coverage exists.
	notifier := consumer.NewNotifier()
	fmt.Println("\nfailure/recovery notifications (after the first full collection cycle):")
	end := start.Add(time.Duration(*hours) * time.Hour)
	d.RunUntil(end, 10*time.Minute, func(now time.Time) {
		status, err := d.Snapshot()
		if err != nil {
			log.Fatal(err)
		}
		if now.Before(start.Add(70 * time.Minute)) {
			return
		}
		if out := consumer.RenderEvents(notifier.Observe(status)); out != "" {
			fmt.Print(out)
		}
	})

	status, err := d.Evaluate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(consumer.SummaryText(status))
	fmt.Println()
	fmt.Println("Detailed software stack view (first resources):")
	fmt.Print(consumer.StackViewText(status))

	// Availability series for one resource (Figure 5's view).
	fmt.Println()
	graph, err := consumer.AvailabilityGraph(d.Depot, "tg-login1.ncsa.teragrid.org",
		agreement.Grid, start, end)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(graph)

	// VO-wide availability overview with sparklines.
	var hosts []string
	for _, h := range gridsim.TeraGridHosts {
		hosts = append(hosts, h.Host)
	}
	page, err := consumer.BuildAvailabilityPage(d.Depot, "TeraGrid availability overview",
		hosts, []agreement.Category{agreement.Grid}, start, end)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(page.Text())

	if *htmlOut != "" {
		html, err := consumer.SummaryHTML(status)
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*htmlOut, html, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nstatus page written to %s\n", *htmlOut)
	}

	// Open incidents at the end of the run, oldest first.
	if open := notifier.Outstanding(d.Clock.Now()); len(open) > 0 {
		fmt.Println("\nopen incidents:")
		fmt.Print(consumer.RenderEvents(open))
	} else {
		fmt.Println("\nno open incidents")
	}

	st := d.Depot.Stats()
	accepted, rejected, errs := d.Controller.Counters()
	fmt.Printf("\ndepot: %d reports (%.1f MB); cache %d entries, %.2f MB; controller %d/%d/%d ok/rejected/errors\n",
		st.Received, float64(st.Bytes)/1024/1024, st.CacheCount,
		float64(st.CacheSize)/1024/1024, accepted, rejected, errs)
}
