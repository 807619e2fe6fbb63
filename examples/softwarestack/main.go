// Softwarestack: the software stack validation use case (paper Section
// 2.1) — "Inca can be used to verify that the installation of new software
// and updates does not interfere with the existing environment."
//
// A site administrator upgrades hdf5 on one resource. The upgrade installs
// a version that satisfies the agreement but silently breaks the library's
// unit test; the next verification cycle catches it before users do. The
// administrator rolls forward with a fixed build and the resource goes
// green again.
//
//	go run ./examples/softwarestack
package main

import (
	"fmt"
	"log"
	"time"

	"inca/internal/consumer"
	"inca/internal/core"
	"inca/internal/gridsim"
)

func main() {
	gridOpt := gridsim.TeraGridOptions{
		InstallTime: time.Date(2004, 6, 1, 0, 0, 0, 0, time.UTC),
		// Quiet grid: the only failures are the ones this scenario injects.
	}
	d, err := core.NewTeraGridDeployment(core.Options{
		Seed: 7,
		Grid: &gridOpt,
	})
	if err != nil {
		log.Fatal(err)
	}
	start := d.Clock.Now()
	const victim = "tg-login1.sdsc.teragrid.org"
	res, _ := d.Grid.Resource(victim)

	show := func(label string) {
		status, err := d.Evaluate()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("--- %s (virtual time %s)\n", label, d.Clock.Now().Format("Jan 2 15:04"))
		for _, rs := range status.Resources {
			if rs.Resource != victim {
				continue
			}
			total := rs.Total()
			fmt.Printf("%s: %d pass, %d fail (%.0f%%)\n", rs.Resource, total.Pass, total.Fail, total.Percent())
			for _, f := range rs.Failures() {
				fmt.Printf("  FAIL %-28s %s\n", f.Test, f.Detail)
			}
		}
		fmt.Println()
	}

	// Baseline: an hour of data collection, everything green.
	d.RunUntil(start.Add(time.Hour+time.Minute), 0, nil)
	show("baseline after install")

	// The upgrade: hdf5 1.6.2 → 1.6.3, but the new build is broken.
	upgradeAt := d.Clock.Now()
	res.InstallPackage("hdf5", "1.6.3", upgradeAt)
	if err := res.BreakPackage("hdf5", upgradeAt); err != nil {
		log.Fatal(err)
	}
	fmt.Printf(">>> admin upgrades hdf5 to 1.6.3 on %s — build is silently broken\n\n", victim)

	// The next hourly cycle detects it.
	d.RunUntil(upgradeAt.Add(time.Hour+time.Minute), 0, nil)
	show("after upgrade — regression caught by the unit test reporter")

	// The fix: a working 1.6.3 build.
	fixAt := d.Clock.Now()
	res.InstallPackage("hdf5", "1.6.3", fixAt)
	fmt.Printf(">>> admin reinstalls a fixed hdf5 1.6.3 build\n\n")
	d.RunUntil(fixAt.Add(time.Hour+time.Minute), 0, nil)
	show("after fix")

	// The stack view shows the whole VO's hdf5 column.
	status, err := d.Evaluate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("software stack status across the VO:")
	fmt.Print(consumer.StackViewText(status))
}
