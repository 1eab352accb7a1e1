package experiments

import (
	"strings"
	"testing"
)

// TestFlowStudySmall runs the study at reduced scale and checks the
// claims the full run makes: exact conservation, the congested overlay
// and direct-only populations offloaded, multipath reorder wait
// reported, duplication repairing real loss.
func TestFlowStudySmall(t *testing.T) {
	r := FlowStudy(FlowsConfig{Flows: 20000, DurSec: 15})
	if r.ConservationErr != nil {
		t.Fatalf("conservation: %v", r.ConservationErr)
	}
	tot := r.Totals
	if tot.Flows != 20000 {
		t.Fatalf("flows %d, want 20000", tot.Flows)
	}
	if tot.Scheduled == 0 || tot.Delivered == 0 {
		t.Fatalf("no traffic: %+v", tot)
	}
	byName := map[string]FlowsGroupRow{}
	for _, g := range r.Groups {
		byName[g.Name] = g
	}
	if g := byName["congested-overlay"]; g.Mode != "direct" || g.Transits == 0 {
		t.Errorf("congested overlay should have offloaded: %+v", g)
	}
	if g := byName["direct-only"]; g.Mode != "direct" {
		t.Errorf("direct-only population must run direct: %+v", g)
	}
	if g := byName["eu-multipath"]; g.Mode != "overlay" {
		t.Errorf("eu multipath should stay on the overlay: %+v", g)
	}
	if tot.ReorderDelivered == 0 || tot.MeanReorderWaitMs() <= 0 {
		t.Errorf("no reorder-buffer accounting: %+v", tot)
	}
	if tot.Repaired == 0 {
		t.Errorf("duplication repaired nothing despite 1%% loss: %+v", tot)
	}
	if tot.DropsLoss == 0 {
		t.Errorf("lossy template produced no loss drops: %+v", tot)
	}
	out := r.Render()
	for _, want := range []string{"conservation: every flow balanced", "reorder buffer", "offload:"} {
		if !strings.Contains(out, want) {
			t.Errorf("render is missing %q:\n%s", want, out)
		}
	}
}

// TestFlowStudyMillion is the acceptance gate: one million concurrent
// flows sustained with conservation intact. A shortened simulated
// window keeps it in test budgets; -run flows does the full minute.
func TestFlowStudyMillion(t *testing.T) {
	if testing.Short() {
		t.Skip("million-flow study is not for -short")
	}
	r := FlowStudy(FlowsConfig{Flows: 1_000_000, DurSec: 5})
	if r.ConservationErr != nil {
		t.Fatalf("conservation at 1M flows: %v", r.ConservationErr)
	}
	if r.Totals.Flows < 1_000_000 {
		t.Fatalf("flows %d, want >= 1M", r.Totals.Flows)
	}
	if !r.Totals.Conserved() {
		t.Fatalf("totals not conserved: %+v", r.Totals)
	}
}
