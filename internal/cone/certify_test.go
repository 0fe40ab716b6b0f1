package cone_test

import (
	"testing"

	"repro/internal/cone"
	"repro/internal/core"
	"repro/internal/haswell"
	"repro/internal/tier"
)

// TestCatalogueConeLPsOnFloatTier deduces every catalogue model with its
// membership LPs counted and checks that the float tier settles them. Of
// the catalogue's 11781 support-pruned LPs, 1386 are below
// tier.FilterMinSize and go straight to the exact simplex; on the 2-core
// Xeon every other one certifies, on the int64 kernel, with no
// certification failure. The test allows exact fallbacks on 1% of the
// float-eligible LPs, since float round-off may differ on other hardware;
// answers are exact either way (the golden digest checks them). -short
// deduces shortModels only.
func TestCatalogueConeLPsOnFloatTier(t *testing.T) {
	st := &tier.Stats{}
	for _, cm := range haswell.Catalog() {
		if testing.Short() && !shortModels[cm.Name] {
			continue
		}
		m, err := core.ModelFromDSL(cm.Name, cm.Source, nil)
		if err != nil {
			t.Fatalf("%s: %v", cm.Name, err)
		}
		if _, err := cone.DeduceCounting(m.Cone(), st); err != nil {
			t.Fatalf("%s: %v", cm.Name, err)
		}
	}
	c := st.Snapshot()
	t.Logf("%d membership LPs: %d feasible and %d infeasible certified (%d on the int64 kernel), %d certification failures, %d exact fallbacks (%d below the filter's size gate)",
		c.Evaluations, c.FilterFeasible, c.FilterInfeasible, c.CertifyKernel, c.CertFailures, c.ExactFallbacks, c.SizeGated)
	if c.Evaluations == 0 || c.FilterHits()+c.ExactFallbacks != c.Evaluations || c.SizeGated > c.ExactFallbacks {
		t.Fatalf("counts do not add up: %+v", c)
	}
	// LPs below tier.FilterMinSize go to the exact simplex by design; the
	// bound applies to the float-eligible rest.
	if eligible, missed := c.Evaluations-c.SizeGated, c.ExactFallbacks-c.SizeGated; 100*missed > eligible {
		t.Fatalf("%d of %d float-eligible membership LPs fell back to the exact tier", missed, eligible)
	}
}
