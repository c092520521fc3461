package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"bluegs/internal/baseband"
	"bluegs/internal/core"
	"bluegs/internal/faults"
	"bluegs/internal/piconet"
)

// randomSpec builds a randomized but structurally valid spec: random
// header knobs, flow sets, SCO links and timeline, for round-trip
// property testing.
func randomSpec(rng *rand.Rand) Spec {
	spec := Spec{
		Name:                "random",
		DelayTarget:         time.Duration(20+rng.Intn(40)) * time.Millisecond,
		Duration:            time.Duration(1+rng.Intn(60)) * time.Second,
		Seed:                rng.Int63n(1 << 40),
		DirectionAware:      rng.Intn(2) == 0,
		WithoutPiggybacking: rng.Intn(2) == 0,
		ARQ:                 rng.Intn(2) == 0,
		LossRecovery:        rng.Intn(2) == 0,
	}
	if rng.Intn(2) == 0 {
		spec.Mode = core.FixedInterval
	} else {
		spec.Mode = core.VariableInterval
	}
	if rng.Intn(2) == 0 {
		spec.RulesSet = true
		spec.Rules = core.Improvements(rng.Intn(8))
	}
	pollers := []BEPollerKind{BEPFP, BERoundRobin, BEExhaustive, BEFEP, BEEDC, BEDemand, BEHOL}
	spec.BEPoller = pollers[rng.Intn(len(pollers))]
	if spec.BEPoller == BEPFP && rng.Intn(2) == 0 {
		spec.PFPThreshold = 0.25 + 0.5*rng.Float64()
	}
	if rng.Intn(2) == 0 {
		spec.Allowed = baseband.PaperTypes
	} else {
		spec.Allowed = baseband.NewTypeSet(baseband.TypeDH1, baseband.TypeDM3)
	}
	switch rng.Intn(3) {
	case 1:
		spec.Radio = BERRadio(float64(1+rng.Intn(9)) * 1e-5)
	case 2:
		spec.Radio = GilbertElliottRadio(0.01, 0.2, 0.001, 0.3)
	}
	id := piconet.FlowID(1)
	dirs := []piconet.Direction{piconet.Up, piconet.Down}
	randGS := func(slave piconet.SlaveID) GSFlow {
		g := GSFlow{
			ID:       id,
			Slave:    slave,
			Dir:      dirs[rng.Intn(2)],
			Interval: time.Duration(10+rng.Intn(30)) * time.Millisecond,
			MinSize:  100 + rng.Intn(50),
			MaxSize:  150 + rng.Intn(50),
			Phase:    time.Duration(rng.Intn(10_000_000)), // sub-ms precision
		}
		if rng.Intn(3) == 0 {
			g.Allowed = baseband.NewTypeSet(baseband.TypeDH1)
		}
		id++
		return g
	}
	randBE := func(slave piconet.SlaveID) BEFlow {
		b := BEFlow{
			ID:         id,
			Slave:      slave,
			Dir:        dirs[rng.Intn(2)],
			RateKbps:   10 + 90*rng.Float64(),
			PacketSize: 27 + rng.Intn(300),
			Phase:      time.Duration(rng.Intn(10_000_000)),
		}
		id++
		return b
	}
	for n := rng.Intn(3); n > 0; n-- {
		spec.GS = append(spec.GS, randGS(piconet.SlaveID(1+rng.Intn(3))))
	}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		spec.BE = append(spec.BE, randBE(piconet.SlaveID(4+rng.Intn(3))))
	}
	if rng.Intn(3) == 0 {
		spec.SCO = append(spec.SCO, SCOLinkSpec{Slave: 7, Type: baseband.TypeHV3})
	}
	for n := rng.Intn(4); n > 0; n-- {
		at := time.Duration(rng.Int63n(int64(spec.Duration)))
		switch rng.Intn(4) {
		case 0:
			spec.Timeline = append(spec.Timeline, AddGSAt(at, randGS(piconet.SlaveID(1+rng.Intn(3)))))
		case 1:
			spec.Timeline = append(spec.Timeline, AddBEAt(at, randBE(piconet.SlaveID(4+rng.Intn(3)))))
		case 2:
			// Remove a flow that exists (static BE always non-empty).
			spec.Timeline = append(spec.Timeline, RemoveAt(at, spec.BE[rng.Intn(len(spec.BE))].ID))
		case 3:
			spec.Timeline = append(spec.Timeline, AddSCOAt(at, SCOLinkSpec{
				Slave: piconet.SlaveID(1 + rng.Intn(7)), Type: baseband.TypeHV3}))
		}
	}
	return spec
}

// TestCodecRoundTripProperty: Unmarshal(Marshal(spec)) must be
// fingerprint-identical — and hence cache-key identical — for randomized
// specs covering every serializable feature.
func TestCodecRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		spec := randomSpec(rng)
		data, err := Marshal(spec)
		if err != nil {
			t.Fatalf("case %d: Marshal: %v\nspec: %+v", i, err, spec)
		}
		back, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("case %d: Unmarshal: %v\njson:\n%s", i, err, data)
		}
		if got, want := back.Fingerprint(), spec.Fingerprint(); got != want {
			t.Fatalf("case %d: fingerprint diverged after round trip\njson:\n%s\ncanonical got:\n%s\ncanonical want:\n%s",
				i, data, back.Canonical(), spec.Canonical())
		}
		if back.Name != spec.Name {
			t.Fatalf("case %d: Name %q != %q", i, back.Name, spec.Name)
		}
	}
}

// TestCodecGoldenPresets pins the serialized form of the registered
// presets: the committed files are the documentation of the v2 format,
// and parsing them back must reproduce the preset exactly.
func TestCodecGoldenPresets(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	for _, tt := range []struct {
		file string
		spec Spec
	}{
		{"paper-fig4.json", Paper(40 * time.Millisecond)},
		{"baseline-pfp.json", Baseline(BEPFP)},
		{"bridge-pair.json", Bridged(BridgedConfig{Hops: 2})},
	} {
		t.Run(tt.file, func(t *testing.T) {
			data, err := Marshal(tt.spec)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tt.file)
			if update {
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
			}
			if string(data) != string(want) {
				t.Fatalf("serialized form drifted from %s\n--- got ---\n%s--- want ---\n%s",
					path, data, want)
			}
			back, err := Unmarshal(want)
			if err != nil {
				t.Fatalf("Unmarshal golden: %v", err)
			}
			if back.Fingerprint() != tt.spec.Fingerprint() {
				t.Fatal("golden file does not reproduce the preset's fingerprint")
			}
		})
	}
}

// TestCodecErrors exercises the decode-side validation.
func TestCodecErrors(t *testing.T) {
	cases := map[string]string{
		"missing format": `{"name":"x"}`,
		"wrong format":   `{"format":"bluegs/scenario/v99"}`,
		"unknown field":  `{"format":"bluegs/scenario/v2","bogus":1}`,
		"bad duration":   `{"format":"bluegs/scenario/v2","duration":"fast"}`,
		"bad size kind": `{"format":"bluegs/scenario/v2","gs_flows":[
			{"id":1,"slave":1,"dir":"up","interval":"20ms","size":{"kind":"zipf"}}]}`,
		"variable be size": `{"format":"bluegs/scenario/v2","be_flows":[
			{"id":1,"slave":1,"dir":"up","rate_kbps":10,"size":{"kind":"uniform","min":10,"max":20}}]}`,
		"bad radio": `{"format":"bluegs/scenario/v2","radio":{"kind":"crystal-ball"}}`,
		"bad rules": `{"format":"bluegs/scenario/v2","rules":"a+z"}`,
		"empty timeline event": `{"format":"bluegs/scenario/v2","be_flows":[
			{"id":1,"slave":1,"dir":"up","rate_kbps":10,"size":{"kind":"fixed","bytes":100}}],
			"timeline":[{"at":"1s"}]}`,
		"multi-op timeline event": `{"format":"bluegs/scenario/v2","be_flows":[
			{"id":1,"slave":1,"dir":"up","rate_kbps":10,"size":{"kind":"fixed","bytes":100}}],
			"timeline":[{"at":"1s","remove_flow":1,"add_be":
			{"id":2,"slave":2,"dir":"up","rate_kbps":10,"size":{"kind":"fixed","bytes":100}}}]}`,
	}
	for name, js := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Unmarshal([]byte(js)); err == nil {
				t.Fatalf("Unmarshal accepted %s", js)
			}
		})
	}
}

// TestParseSpecErrors: malformed values in an otherwise well-tagged file
// (mode, a bad or missing direction, packet type names, an ACL type on an
// SCO link) fail
// with ErrBadSpec, as does malformed JSON.
func TestParseSpecErrors(t *testing.T) {
	tests := []struct {
		name string
		json string
	}{
		{"invalid json", `{`},
		{"unknown field", `{"format":"bluegs/scenario/v2","bogus":1}`},
		{"bad mode", `{"format":"bluegs/scenario/v2","mode":"warp"}`},
		{"bad direction", `{"format":"bluegs/scenario/v2","gs_flows":[
			{"id":1,"slave":1,"dir":"sideways","interval":"20ms","size":{"kind":"uniform","min":10,"max":20}}]}`},
		{"missing direction", `{"format":"bluegs/scenario/v2","gs_flows":[
			{"id":1,"slave":1,"interval":"20ms","size":{"kind":"uniform","min":10,"max":20}}]}`},
		{"empty direction", `{"format":"bluegs/scenario/v2","be_flows":[
			{"id":1,"slave":1,"dir":"","rate_kbps":10,"size":{"kind":"fixed","bytes":100}}]}`},
		{"bad packet type", `{"format":"bluegs/scenario/v2","allowed_types":["DH9"]}`},
		{"acl as sco", `{"format":"bluegs/scenario/v2","sco_links":[{"slave":1,"type":"DH1"}]}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Unmarshal([]byte(tt.json)); !errors.Is(err, ErrBadSpec) {
				t.Fatalf("Unmarshal(%s) err = %v, want ErrBadSpec", tt.json, err)
			}
		})
	}
}

// TestLoadFileSniffsFormats: LoadFile reads v2 files and rejects a
// legacy v1 file (no format tag) with an error naming the v2 format.
func TestLoadFileSniffsFormats(t *testing.T) {
	dir := t.TempDir()
	v2, err := Marshal(Paper(40 * time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	v2Path := filepath.Join(dir, "v2.json")
	if err := os.WriteFile(v2Path, v2, 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := LoadFile(v2Path)
	if err != nil {
		t.Fatalf("LoadFile v2: %v", err)
	}
	if spec.Fingerprint() != Paper(40*time.Millisecond).Fingerprint() {
		t.Fatal("v2 load drifted")
	}
	legacy := `{"name":"legacy","delay_target_ms":40,"duration_s":5,
		"gs_flows":[{"id":1,"slave":1,"dir":"up","interval_ms":20,"min_size":144,"max_size":176}]}`
	v1Path := filepath.Join(dir, "v1.json")
	if err := os.WriteFile(v1Path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err = LoadFile(v1Path); !errors.Is(err, ErrBadSpec) || !strings.Contains(err.Error(), FormatV2) {
		t.Fatalf("LoadFile v1 err = %v, want ErrBadSpec naming %s", err, FormatV2)
	}
}

// legacySampleJSON is a complete v1 file: the untagged format LoadFile
// accepted before v2 became the only scenario format.
const legacySampleJSON = `{
  "name": "custom",
  "delay_target_ms": 42,
  "duration_s": 5,
  "seed": 9,
  "mode": "fixed",
  "be_poller": "fep",
  "allowed_types": ["DH1", "DH3"],
  "gs_flows": [
    {"id": 1, "slave": 1, "dir": "up", "interval_ms": 20, "min_size": 144, "max_size": 176, "phase_ms": 2}
  ],
  "sco_links": [
    {"slave": 3, "type": "HV3"}
  ]
}`

// TestLoadFileLegacyForm: a full v1 file is rejected for its missing
// format tag, with an error naming the v2 format rather than the first v1
// field the strict decoder trips on; a missing file also fails.
func TestLoadFileLegacyForm(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "scenario.json")
	if err := os.WriteFile(path, []byte(legacySampleJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadFile(path)
	if !errors.Is(err, ErrBadSpec) || !strings.Contains(err.Error(), FormatV2) ||
		strings.Contains(err.Error(), "delay_target_ms") {
		t.Fatalf("LoadFile v1 err = %v, want ErrBadSpec naming %s", err, FormatV2)
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file should fail")
	}
}

// sampleJSON is a flat v2 file exercising the header knobs, every flow
// kind and a per-flow type override.
const sampleJSON = `{
  "format": "bluegs/scenario/v2",
  "name": "custom",
  "delay_target": "42ms",
  "duration": "5s",
  "seed": 9,
  "mode": "fixed",
  "poller": {"kind": "fep"},
  "allowed_types": ["DH1", "DH3"],
  "direction_aware": true,
  "arq": true,
  "loss_recovery": true,
  "radio": {"kind": "ber", "ber": 0.0001},
  "gs_flows": [
    {"id": 1, "slave": 1, "dir": "up", "interval": "20ms", "size": {"kind": "uniform", "min": 144, "max": 176}, "phase": "2ms"}
  ],
  "be_flows": [
    {"id": 2, "slave": 2, "dir": "down", "rate_kbps": 40, "size": {"kind": "fixed", "bytes": 27}, "allowed_types": ["DH1"]}
  ],
  "sco_links": [
    {"slave": 3, "type": "HV3"}
  ]
}`

// TestParseSpec decodes sampleJSON and checks it field by field.
func TestParseSpec(t *testing.T) {
	spec, err := Unmarshal([]byte(sampleJSON))
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if spec.Name != "custom" || spec.Seed != 9 {
		t.Fatalf("header: %+v", spec)
	}
	if spec.DelayTarget != 42*time.Millisecond || spec.Duration != 5*time.Second {
		t.Fatalf("durations: %v %v", spec.DelayTarget, spec.Duration)
	}
	if spec.Mode != core.FixedInterval {
		t.Fatalf("mode = %v", spec.Mode)
	}
	if spec.BEPoller != BEFEP {
		t.Fatalf("poller = %v", spec.BEPoller)
	}
	if !spec.DirectionAware || !spec.ARQ || !spec.LossRecovery {
		t.Fatal("boolean knobs not parsed")
	}
	if spec.Radio.Kind != RadioBER || spec.Radio.BER != 0.0001 {
		t.Fatalf("radio = %+v", spec.Radio)
	}
	if len(spec.GS) != 1 || spec.GS[0].Dir != piconet.Up || spec.GS[0].Phase != 2*time.Millisecond {
		t.Fatalf("GS = %+v", spec.GS)
	}
	if len(spec.BE) != 1 || !spec.BE[0].Allowed.Contains(baseband.TypeDH1) ||
		spec.BE[0].Allowed.Contains(baseband.TypeDH3) {
		t.Fatalf("BE = %+v", spec.BE)
	}
	if len(spec.SCO) != 1 || spec.SCO[0].Type != baseband.TypeHV3 || spec.SCO[0].Slave != 3 {
		t.Fatalf("SCO = %+v", spec.SCO)
	}
	if !spec.Allowed.Contains(baseband.TypeDH3) {
		t.Fatalf("allowed = %v", spec.Allowed)
	}
}

// TestParseSpecLenientSpellings: "" decodes as a zero duration, and
// directions and packet-type names take any case and surrounding space.
func TestParseSpecLenientSpellings(t *testing.T) {
	spec, err := Unmarshal([]byte(`{"format":"bluegs/scenario/v2","duration":"","gs_flows":[
		{"id":1,"slave":1,"dir":" UP ","interval":"","phase":"","size":{"kind":"uniform","min":144,"max":176},
		"allowed_types":[" dh1 "]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	g := spec.GS[0]
	if spec.Duration != 0 || g.Interval != 0 || g.Phase != 0 || g.Dir != piconet.Up || g.Allowed != baseband.TypeSet(0).Add(baseband.TypeDH1) {
		t.Fatalf("spec = %+v", spec)
	}
}

// TestCodecReadsEveryTypeName: Marshal writes every packet type in an
// Allowed set by name, NULL and POLL included, so Unmarshal must read each
// name back to the same spec.
func TestCodecReadsEveryTypeName(t *testing.T) {
	spec := Paper(40 * time.Millisecond)
	spec.BE[0].Allowed = baseband.TypeSet(0).Add(baseband.TypeNULL).Add(baseband.TypeDH1)
	data, err := Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal of Marshal output: %v\n%s", err, data)
	}
	if back.Fingerprint() != spec.Fingerprint() {
		t.Fatalf("fingerprint changed across the round trip:\n%s", data)
	}
	for typ := baseband.TypeNULL; typ.Valid(); typ++ {
		if got := packetTypeByName(" " + strings.ToLower(typ.String()) + " "); got != typ {
			t.Errorf("packetTypeByName(%q) = %v", typ, got)
		}
	}
}

// TestWireTypesEncodeByValue: a specV2 encodes the same by value as by
// pointer, so every encode site spells durations, directions and
// packet-type sets through the wire types, never as integers.
func TestWireTypesEncodeByValue(t *testing.T) {
	specs := []Spec{edgeSpec()}
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 20; round++ {
		specs = append(specs, randomScatternetSpec(rng, round))
	}
	for i, spec := range specs {
		fs, err := toV2(spec)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		byValue, err1 := json.Marshal(fs)
		byPointer, err2 := json.Marshal(&fs)
		if err1 != nil || err2 != nil || !bytes.Equal(byValue, byPointer) {
			t.Fatalf("spec %d: by value (%v)\n%s\nby pointer (%v)\n%s", i, err1, byValue, err2, byPointer)
		}
	}
}

// TestParsedSpecRuns runs sampleJSON: every bound holds and the SCO and GS
// flows carry their load.
func TestParsedSpecRuns(t *testing.T) {
	spec, err := Unmarshal([]byte(sampleJSON))
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	spec.Duration = 3 * time.Second
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if v := res.BoundViolations(); len(v) != 0 {
		t.Fatalf("violations: %+v", v)
	}
	if res.SCOKbps[3] < 120 {
		t.Fatalf("SCO throughput = %.1f, want ~128", res.SCOKbps[3])
	}
	gsFlow, _ := res.FlowByID(1)
	if gsFlow.Kbps < 60 {
		t.Fatalf("GS throughput = %.1f", gsFlow.Kbps)
	}
}

// TestCodecFaultBlocksRoundTrip pins the v2 serialization of the fault
// plan, the recovery block, and the move_flow timeline event: every
// field survives the round trip and the decoded spec is
// fingerprint-identical to the original.
func TestCodecFaultBlocksRoundTrip(t *testing.T) {
	spec := FaultScenario(FaultScenarioConfig{Policy: faults.PolicyHandoff})
	spec.Faults.Departures = []faults.SlaveDeparture{
		{Piconet: "pn1", Slave: 3, At: 4 * time.Second, ReturnAt: 5 * time.Second},
		{Piconet: "pn2", Slave: 5, At: 9 * time.Second}, // never returns
	}
	spec.Faults.Crashes = []faults.MasterCrash{{Piconet: "pn2", At: 11 * time.Second}}
	spec.Recovery.DegradeFactor = 0 // inert outside PolicyDegrade
	spec.Recovery.HandoffTarget = "pn2"
	spec.Timeline = append(spec.Timeline, MoveFlowAt(6*time.Second, 2, "pn2"))

	data, err := Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"faults"`, `"outages"`, `"departures"`, `"crashes"`,
		`"recovery"`, `"handoff"`, `"move_flow"`, `"return_at"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("serialized form lacks %s:\n%s", want, data)
		}
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v\njson:\n%s", err, data)
	}
	if back.Fingerprint() != spec.Fingerprint() {
		t.Fatalf("fingerprint diverged after round trip\ngot:\n%s\nwant:\n%s",
			back.Canonical(), spec.Canonical())
	}
	if !reflect.DeepEqual(back.Faults, spec.Faults) {
		t.Fatalf("fault plan drifted:\ngot  %+v\nwant %+v", back.Faults, spec.Faults)
	}
	if !reflect.DeepEqual(back.Recovery, spec.Recovery) {
		t.Fatalf("recovery spec drifted:\ngot  %+v\nwant %+v", back.Recovery, spec.Recovery)
	}
	last := back.Timeline[len(back.Timeline)-1]
	if last.Move == nil || last.Move.Flow != 2 || last.Move.To != "pn2" || last.At != 6*time.Second {
		t.Fatalf("move_flow event drifted: %+v", last)
	}

	// Decode-side validation of the new blocks.
	for name, js := range map[string]string{
		"bad outage start": `{"format":"bluegs/scenario/v2","be_flows":[
			{"id":1,"slave":1,"dir":"up","rate_kbps":10,"size":{"kind":"fixed","bytes":100}}],
			"faults":{"outages":[{"slave":1,"start":"soon","end":"2s"}]}}`,
		"bad departure return": `{"format":"bluegs/scenario/v2","be_flows":[
			{"id":1,"slave":1,"dir":"up","rate_kbps":10,"size":{"kind":"fixed","bytes":100}}],
			"faults":{"departures":[{"slave":1,"at":"1s","return_at":"later"}]}}`,
		"bad crash at": `{"format":"bluegs/scenario/v2","be_flows":[
			{"id":1,"slave":1,"dir":"up","rate_kbps":10,"size":{"kind":"fixed","bytes":100}}],
			"faults":{"crashes":[{"at":"whenever"}]}}`,
	} {
		if _, err := Unmarshal([]byte(js)); err == nil {
			t.Errorf("%s: Unmarshal accepted it", name)
		}
	}
}
