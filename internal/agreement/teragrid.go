package agreement

import (
	"time"

	"inca/internal/gridsim"
)

// TeraGrid builds the TeraGrid Hosting Environment service agreement
// (Section 4.1): the CTSS software stack with exact version requirements
// and unit tests, the four cross-site services, the default-environment
// variables, and the SoftEnv keys.
func TeraGrid() *Agreement {
	ag := &Agreement{
		Name:   "Common TeraGrid Software and Services 2.0",
		VO:     "teragrid",
		MaxAge: 4 * time.Hour,
	}
	addPkgs := func(m map[string]string, cat Category) {
		for _, name := range sortedKeys(m) {
			// gm (Myrinet) is absent on the reduced Alpha hosts, so the
			// common agreement cannot require it (see gridsim).
			if name == gridsim.ReducedSkipPackage {
				continue
			}
			ag.Packages = append(ag.Packages, PackageReq{
				Name:     name,
				Category: cat,
				Version:  Constraint{Op: ">=", Version: m[name]},
				UnitTest: true,
			})
		}
	}
	addPkgs(gridsim.GridPackages, Grid)
	addPkgs(gridsim.DevelopmentPackages, Development)
	addPkgs(gridsim.ClusterPackages, Cluster)

	for _, svc := range gridsim.TeraGridServices {
		ag.Services = append(ag.Services, ServiceReq{
			Name:      svc.Name,
			Category:  Grid,
			CrossSite: svc.Name == "gram-gatekeeper" || svc.Name == "gridftp",
		})
	}
	for _, name := range sortedKeys(gridsim.TeraGridEnv) {
		ag.Env = append(ag.Env, EnvReq{Name: name, Value: gridsim.TeraGridEnv[name], Category: Cluster})
	}
	ag.SoftEnv = append(ag.SoftEnv,
		SoftEnvReq{Key: "@teragrid", Category: Cluster},
		SoftEnvReq{Key: "+globus", Category: Cluster},
		SoftEnvReq{Key: "+mpich", Category: Cluster},
	)
	return ag
}
