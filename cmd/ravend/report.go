package main

import (
	"encoding/json"
	"fmt"
	"os"

	"ravenguard/internal/fleet"
)

// fleetReportJSON is the -fleetout document: the engine's SLO report plus
// one entry per session.
type fleetReportJSON struct {
	Report   fleet.Report      `json:"report"`
	Mix      string            `json:"mix"`
	Stagger  int               `json:"stagger_ticks"`
	Teleop   float64           `json:"teleop_seconds"`
	BaseSeed int64             `json:"base_seed"`
	Sessions []sessionJSONLine `json:"sessions"`
}

type sessionJSONLine struct {
	Seed      int64  `json:"seed"`
	Attack    string `json:"attack"`
	Guard     string `json:"guard"`
	StartTick int    `json:"start_tick"`
	Ticks     int    `json:"ticks"`
	Alarms    int    `json:"alarms"`
	Mitigated int    `json:"mitigated"`
	EStop     bool   `json:"estop"`
	Digest    string `json:"digest"`
}

func writeFleetReport(path string, o options, rep fleet.Report, sessions []*fleet.Session) error {
	doc := fleetReportJSON{
		Report:   rep,
		Mix:      o.mix,
		Stagger:  o.stagger,
		Teleop:   o.teleop,
		BaseSeed: o.seed,
	}
	for _, s := range sessions {
		var alarms, mitigated int
		if g := s.Guard(); g != nil {
			alarms, mitigated = g.Alarms(), g.Mitigated()
		}
		doc.Sessions = append(doc.Sessions, sessionJSONLine{
			Seed:      s.Spec.Seed,
			Attack:    orNone(s.Spec.Attack),
			Guard:     orOff(s.Spec.Guard),
			StartTick: s.Spec.StartTick,
			Ticks:     s.Ticks(),
			Alarms:    alarms,
			Mitigated: mitigated,
			EStop:     s.Rig().PLC().EStopped(),
			Digest:    fmt.Sprintf("%016x", s.Sum()),
		})
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
