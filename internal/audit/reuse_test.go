package audit_test

import (
	"bytes"
	"strings"
	"testing"

	"homeguard/internal/audit"
	"homeguard/internal/detect"
)

// modeLightSrc is one app name in three generations that differ only in
// the options of its enum input "pick" — the input's solver domain, and
// so the witnesses of every threat involving the condition on it.
func modeLightSrc(options string) string {
	return `
definition(name: "ModeLight", namespace: "test", author: "test",
    description: "Switch the lamp off when the wall switch turns on, unless the picked scene is Bright.",
    category: "Convenience")
input "sw", "capability.switch"
input "lamp", "capability.switch"
input "pick", "enum"` + options + `
def installed() { subscribe(sw, "switch.on", onSwitch) }
def updated() { unsubscribe(); subscribe(sw, "switch.on", onSwitch) }
def onSwitch(evt) {
    if (pick != "Bright") {
        lamp.off()
    }
}
`
}

const lampOnSrc = `
definition(name: "LampOn", namespace: "test", author: "test",
    description: "Switch the lamp on when motion starts, in the chosen scene.",
    category: "Convenience")
input "motion1", "capability.motionSensor"
input "lamp", "capability.switch"
input "pick", "enum", options: ["Bright", "Dim"]
def installed() { subscribe(motion1, "motion.active", onMotion) }
def updated() { unsubscribe(); subscribe(motion1, "motion.active", onMotion) }
def onMotion(evt) {
    if (pick == "Dim") {
        lamp.on()
    }
}
`

const switchFollowerSrc = `
definition(name: "SwitchFollower", namespace: "test", author: "test",
    description: "Turn the wall switch on when the lamp turns off.",
    category: "Convenience")
input "lamp", "capability.switch"
input "sw", "capability.switch"
def installed() { subscribe(lamp, "switch.off", onOff) }
def updated() { unsubscribe(); subscribe(lamp, "switch.off", onOff) }
def onOff(evt) {
    sw.on()
}
`

func bind(devices map[string]string) *detect.Config {
	cfg := detect.NewConfig()
	for in, dev := range devices {
		cfg.Devices[in] = dev
	}
	return cfg
}

// TestAuditorReuseIsolation pins that the auditor's long-lived worker
// detectors and scratch carry nothing from one pair or revision to the
// next. One app name is re-upserted again and again with different enum
// input options and different device bindings, so the same rule-pair
// cache keys and the same app-qualified input names come back with new
// formulas and new domains; a satCache entry or input-option set that
// survived its pair would change a verdict or a witness. After every
// revision the findings must be byte-identical to a from-scratch audit.
func TestAuditorReuseIsolation(t *testing.T) {
	gens := []string{
		modeLightSrc(`, options: ["Dim", "Bright"]`),
		modeLightSrc(`, options: ["Bright", "Soft", "Dim"]`),
		modeLightSrc(``),
	}
	bindings := []*detect.Config{
		bind(map[string]string{"sw": "dev-wall", "lamp": "dev-lamp"}),
		bind(map[string]string{"sw": "dev-hall", "lamp": "dev-lamp"}),
		bind(map[string]string{"sw": "dev-wall", "lamp": "dev-porch"}),
	}
	others := []audit.App{
		{Source: lampOnSrc, Config: bind(map[string]string{"motion1": "dev-motion", "lamp": "dev-lamp"})},
		{Source: switchFollowerSrc, Config: bind(map[string]string{"lamp": "dev-lamp", "sw": "dev-wall"})},
	}
	modeLight := func(g, b int) audit.App {
		return audit.App{Source: gens[g], Config: bindings[b]}
	}
	// (generation, binding) per revision: every step changes the options,
	// the bindings or both, and revisits earlier combinations.
	steps := [][2]int{{0, 0}, {1, 0}, {2, 0}, {0, 1}, {1, 1}, {0, 0}, {2, 2}, {1, 0}, {0, 2}, {0, 0}}

	for _, workers := range []int{1, 2} {
		aud := audit.NewAuditor(audit.AuditorOptions{Workers: workers})
		var sawPickWitness bool
		for i, st := range steps {
			store := append([]audit.App{modeLight(st[0], st[1])}, others...)
			batch := audit.Batch{Upserts: store[:1]}
			if i == 0 {
				batch.Upserts = store
			}
			rev, err := aud.Apply(batch)
			if err != nil {
				t.Fatalf("workers %d, rev %d: apply: %v", workers, i+1, err)
			}
			if len(rev.Errors) != 0 {
				t.Fatalf("workers %d, rev %d: batch errors: %v", workers, i+1, rev.Errors)
			}
			full := audit.Run(store, audit.Options{Workers: workers})
			for j, err := range full.Errors {
				if err != nil {
					t.Fatalf("full audit: app %d: %v", j, err)
				}
			}
			got := marshal(t, aud.Threats())
			want := marshal(t, full.Threats())
			if !bytes.Equal(got, want) {
				t.Fatalf("workers %d, rev %d (generation %d, binding %d): reused auditor diverges from a from-scratch audit\nreused: %s\nfull:   %s",
					workers, i+1, st[0], st[1], got, want)
			}
			sawPickWitness = sawPickWitness || strings.Contains(string(got), "ModeLight!pick")
		}
		if !sawPickWitness {
			t.Fatalf("workers %d: no finding's witness names ModeLight's enum input; the test no longer exercises input options", workers)
		}
	}
}
