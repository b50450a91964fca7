package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestLegacySingleSessionCLI pins the pre-fleet command surface: the
// default single-session path with record/replay/SVG workflows must keep
// working unchanged alongside the fleet flags.
func TestLegacySingleSessionCLI(t *testing.T) {
	dir := t.TempDir()
	rec := filepath.Join(dir, "session.jsonl")
	svg := filepath.Join(dir, "tip.svg")

	var out bytes.Buffer
	err := run([]string{
		"-seed", "5", "-teleop", "0.3", "-attack", "B", "-value", "20000",
		"-delay", "150", "-duration", "64", "-guard", "monitor",
		"-record", rec, "-svg", svg,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"attack scenario B: DAC offset 20000",
		"--- session summary ---",
		"guard alarms:",
		"recorded",
		"rendered tip path to",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("single-session output missing %q:\n%s", want, text)
		}
	}
	if fi, err := os.Stat(rec); err != nil || fi.Size() == 0 {
		t.Errorf("recording not written: %v", err)
	}
	if buf, err := os.ReadFile(svg); err != nil || !strings.Contains(string(buf), "<svg") {
		t.Errorf("SVG not written: %v", err)
	}

	// Replay the recording (the recorded operator inputs drive the rig).
	out.Reset()
	if err := run([]string{"-seed", "5", "-replay", rec}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "replaying "+rec) {
		t.Errorf("replay output missing banner:\n%s", out.String())
	}

	// Flag errors still surface.
	if err := run([]string{"-attack", "Z"}, &out); err == nil {
		t.Error("unknown attack accepted")
	}
	if err := run([]string{"-nosuchflag"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
}

var fleetSessionRe = regexp.MustCompile(`^session (\d+) seed=(\d+) attack=(\S+) guard=(\S+) start=\d+ ticks=(\d+) alarms=\d+ digest=([0-9a-f]{16})`)

// TestFleetDigestsMatchSingleRuns pins the CLI-level equivalence contract
// check.sh leans on: every session line of a mixed fleet run carries the
// digest the equivalent single-session invocation prints with -digest.
func TestFleetDigestsMatchSingleRuns(t *testing.T) {
	common := []string{"-teleop", "0.4", "-value", "20000", "-delay", "150", "-duration", "64", "-seed", "11"}

	var out bytes.Buffer
	args := append([]string{"-fleet", "6", "-workers", "2",
		"-mix", "none:off,B:mitigate,A:holdsafe", "-stagger", "120"}, common...)
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}

	type line struct{ seed, attack, guard, ticks, digest string }
	var lines []line
	for _, l := range strings.Split(out.String(), "\n") {
		if m := fleetSessionRe.FindStringSubmatch(l); m != nil {
			lines = append(lines, line{seed: m[2], attack: m[3], guard: m[4], ticks: m[5], digest: m[6]})
		}
	}
	if len(lines) != 6 {
		t.Fatalf("fleet printed %d session lines, want 6:\n%s", len(lines), out.String())
	}

	for i, l := range lines {
		var single bytes.Buffer
		args := append([]string{"-attack", l.attack, "-guard", l.guard, "-digest"}, common...)
		args = append(args, "-seed", l.seed)
		if err := run(args, &single); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("digest=%s ticks=%s", l.digest, l.ticks)
		if !strings.Contains(single.String(), want) {
			t.Errorf("session %d (seed %s, attack %s, guard %s): single run disagrees with fleet, want %q in:\n%s",
				i, l.seed, l.attack, l.guard, want, single.String())
		}
	}
}

// TestFleetReportJSON pins the -fleetout document shape.
func TestFleetReportJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.json")
	var out bytes.Buffer
	err := run([]string{"-fleet", "3", "-mix", "B:mitigate", "-teleop", "0.3",
		"-value", "20000", "-delay", "150", "-fleetout", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc fleetReportJSON
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatalf("fleetout is not valid JSON: %v", err)
	}
	if doc.Report.Sessions != 3 || len(doc.Sessions) != 3 {
		t.Fatalf("report covers %d/%d sessions, want 3", doc.Report.Sessions, len(doc.Sessions))
	}
	if doc.Report.SessionTicks <= 0 || doc.Report.SessionsPerCore <= 0 || doc.Report.PeakRSSBytes <= 0 {
		t.Errorf("SLO fields empty: %+v", doc.Report)
	}
	for _, s := range doc.Sessions {
		if len(s.Digest) != 16 || s.Ticks <= 0 {
			t.Errorf("bad session entry: %+v", s)
		}
	}
}
