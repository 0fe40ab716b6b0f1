package cone_test

import (
	"testing"

	"repro/internal/cone"
	"repro/internal/core"
	"repro/internal/haswell"
	"repro/internal/tier"
)

// TestCatalogueConeLPsOnFloatTier deduces every catalogue model with its
// membership LPs counted and checks that the float tier settles them: on
// the 2-core Xeon every one of the catalogue's 12368 LPs certifies, on
// the int64 kernel, with no certification failure or exact fallback. The
// test allows exact fallbacks on 1% of the LPs, since float round-off may
// differ on other hardware; answers are exact either way (the golden
// digest checks them). -short deduces shortModels only.
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
	t.Logf("%d membership LPs: %d feasible and %d infeasible certified (%d on the int64 kernel), %d certification failures, %d exact fallbacks",
		c.Evaluations, c.FilterFeasible, c.FilterInfeasible, c.CertifyKernel, c.CertFailures, c.ExactFallbacks)
	if c.Evaluations == 0 || c.FilterHits()+c.ExactFallbacks != c.Evaluations {
		t.Fatalf("counts do not add up: %+v", c)
	}
	if 100*c.ExactFallbacks > c.Evaluations {
		t.Fatalf("%d of %d membership LPs fell back to the exact tier", c.ExactFallbacks, c.Evaluations)
	}
}
