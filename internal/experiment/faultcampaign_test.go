package experiment

import (
	"reflect"
	"strings"
	"testing"

	"ravenguard/internal/fault"
)

func TestFaultCampaignDeterministicAndCrashFree(t *testing.T) {
	// A small campaign run twice from the same seed must produce the
	// identical matrix, with zero crash outcomes and every scheduled fault
	// kind actually firing.
	cfg := FaultCampaignConfig{
		BaseSeed: 11,
		Seeds:    1,
		Teleop:   4,
		Kinds: []fault.Kind{
			fault.KindPacketLoss,
			fault.KindEncoderDropout,
			fault.KindBoardStall,
		},
	}
	first, err := RunFaultCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunFaultCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("campaign not reproducible:\nfirst:  %+v\nsecond: %+v", first, second)
	}
	// amd64 digest.
	requireDigest(t, first, "21d217f612dd01812172246d0ce9c4439c72af6b7ddcd1040adccde32bbe93ef")
	if got := len(first.Cells); got != len(cfg.Kinds)*len(AllPolicies()) {
		t.Fatalf("%d cells, want %d", got, len(cfg.Kinds)*len(AllPolicies()))
	}
	if n := first.Crashes(); n != 0 {
		t.Fatalf("%d crash outcomes in the matrix", n)
	}
	if !first.KindsExercised() {
		t.Fatal("a scheduled fault kind never fired")
	}
	// The board stall must end every one of its runs in E-STOP (the
	// watchdog latch), under every guard policy.
	for _, c := range first.Cells {
		if c.Kind == fault.KindBoardStall && c.EStops != c.Seeds {
			t.Fatalf("board-stall cell %v ended %d/%d runs in E-STOP", c.Policy, c.EStops, c.Seeds)
		}
	}
}

func TestFaultOutcomeClassification(t *testing.T) {
	cases := []struct {
		rec   faultRun
		truth bool
		want  FaultOutcome
	}{
		{faultRun{crashed: true, alarm: true, halted: true}, true, OutcomeCrash},
		{faultRun{alarm: true}, false, OutcomeFalseAlarm},
		{faultRun{alarm: true, halted: true}, false, OutcomeFalseAlarm},
		{faultRun{halted: true}, false, OutcomeEStop},
		{faultRun{alarm: true, halted: true}, true, OutcomeEStop},
		{faultRun{impact: true}, true, OutcomeMissedImpact},
		{faultRun{}, false, OutcomeRodeThrough},
		{faultRun{alarm: true, impact: true}, true, OutcomeRodeThrough}, // monitor-mode TP
	}
	for i, c := range cases {
		if got := classifyFaultOutcome(c.rec, c.truth); got != c.want {
			t.Fatalf("case %d: got %v, want %v", i, got, c.want)
		}
	}
}

func TestFaultCellOutcomesRendering(t *testing.T) {
	c := FaultCell{EStops: 2, RodeThrough: 1}
	if got := c.Outcomes(); !strings.Contains(got, "2×e-stop") || !strings.Contains(got, "1×rode-through") {
		t.Fatalf("Outcomes() = %q", got)
	}
	if got := (FaultCell{}).Outcomes(); got != "-" {
		t.Fatalf("empty Outcomes() = %q", got)
	}
}
