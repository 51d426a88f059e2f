package metrics

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/trace/tracetest"
)

// TestSeriesNamesRenderAlone: every exported name equals its series' name
// rendered on its own, from its family and IDs (or tenant), however many
// names the fold rendered before and after it.
func TestSeriesNamesRenderAlone(t *testing.T) {
	events := tracetest.Capture(20_000, 128)
	c, err := NewCollector(Config{Window: 0.01, Topo: cluster.NewT1(128)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range events {
		c.Observe(&events[i])
	}
	set := c.Finish()
	tenantOf := make(map[*series]string)
	for _, ts := range c.tenants {
		tenantOf[ts.s] = ts.tenant
	}
	if len(set.Series) != len(c.all) {
		t.Fatalf("%d series exported, %d folded", len(set.Series), len(c.all))
	}
	for i, s := range c.all {
		want := families[s.id.f].name
		switch tenant, ok := tenantOf[s]; {
		case ok:
			want = fmt.Sprintf("%s:%s", want, tenant)
		case s.id.b >= 0:
			want = fmt.Sprintf("%s:%d>%d", want, s.id.a, s.id.b)
		case s.id.a >= 0:
			want = fmt.Sprintf("%s:%d", want, s.id.a)
		}
		if got := set.Series[i].Name; got != want {
			t.Errorf("series %d is named %q, rendered alone %q", i, got, want)
		}
	}
}
