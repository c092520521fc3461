package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"bluegs/internal/baseband"
	"bluegs/internal/core"
	"bluegs/internal/faults"
	"bluegs/internal/piconet"
)

// FormatV2 is the format tag of the v2 scenario file format: the complete
// serializable Spec — flows, poller/radio/size distributions by name plus
// parameters, SCO links and the timeline — with durations as Go duration
// strings ("20ms"), so values round-trip exactly. Scatternet specs add a
// "piconets" array (named piconets, each with its own flow and SCO sets)
// plus an "interference" block, and timeline events gain a "piconet"
// address and the add_piconet/remove_piconet operations; single-piconet
// files are unchanged byte for byte.
const FormatV2 = "bluegs/scenario/v2"

// specV2 is the v2 on-disk form of a Spec.
type specV2 struct {
	Format              string          `json:"format"`
	Name                string          `json:"name,omitempty"`
	DelayTarget         string          `json:"delay_target,omitempty"`
	Duration            string          `json:"duration,omitempty"`
	Seed                int64           `json:"seed,omitempty"`
	Mode                string          `json:"mode,omitempty"`
	Rules               *string         `json:"rules,omitempty"`
	Poller              *pollerV2       `json:"poller,omitempty"`
	Allowed             []string        `json:"allowed_types,omitempty"`
	DirectionAware      bool            `json:"direction_aware,omitempty"`
	WithoutPiggybacking bool            `json:"without_piggybacking,omitempty"`
	ARQ                 bool            `json:"arq,omitempty"`
	LossRecovery        bool            `json:"loss_recovery,omitempty"`
	BatchTraffic        bool            `json:"batch_traffic,omitempty"`
	Radio               *RadioSpec      `json:"radio,omitempty"`
	Interference        *interferenceV2 `json:"interference,omitempty"`
	InterferenceAware   bool            `json:"interference_aware_admission,omitempty"`
	AdmissionDerate     float64         `json:"admission_derate,omitempty"`
	// The flat spec's flows and SCO links: a piconet whose name the
	// top-level "name" shadows.
	piconetV2
	Piconets []piconetV2     `json:"piconets,omitempty"`
	Bridges  []bridgeV2      `json:"bridges,omitempty"`
	Routes   []routeV2       `json:"routes,omitempty"`
	Faults   *faultsV2       `json:"faults,omitempty"`
	Recovery *recoveryV2     `json:"recovery,omitempty"`
	Timeline []timelineEvtV2 `json:"timeline,omitempty"`
}

// faultsV2 is the declarative fault plan block.
type faultsV2 struct {
	Outages    []outageV2    `json:"outages,omitempty"`
	Departures []departureV2 `json:"departures,omitempty"`
	Crashes    []crashV2     `json:"crashes,omitempty"`
}

type outageV2 struct {
	Piconet string `json:"piconet,omitempty"`
	Slave   int    `json:"slave"`
	Start   string `json:"start"`
	End     string `json:"end"`
}

type departureV2 struct {
	Piconet  string `json:"piconet,omitempty"`
	Slave    int    `json:"slave"`
	At       string `json:"at"`
	ReturnAt string `json:"return_at,omitempty"`
}

type crashV2 struct {
	Piconet string `json:"piconet,omitempty"`
	At      string `json:"at"`
}

// recoveryV2 is the self-healing configuration block.
type recoveryV2 struct {
	Supervision   int     `json:"supervision,omitempty"`
	Policy        string  `json:"policy,omitempty"`
	DegradeFactor float64 `json:"degrade_factor,omitempty"`
	HandoffTarget string  `json:"handoff_target,omitempty"`
}

// bridgeV2 is one bridge node's residency schedule.
type bridgeV2 struct {
	Name      string        `json:"name"`
	Period    string        `json:"period"`
	Residency []residencyV2 `json:"residency"`
}

type residencyV2 struct {
	Piconet string `json:"piconet,omitempty"`
	Slave   int    `json:"slave"`
	Start   string `json:"start,omitempty"`
	End     string `json:"end"`
}

// routeV2 is one end-to-end route.
type routeV2 struct {
	ID          int      `json:"id"`
	Name        string   `json:"name,omitempty"`
	Source      string   `json:"source,omitempty"`
	Bridges     []string `json:"bridges,omitempty"`
	Slave       int      `json:"slave,omitempty"`
	Dir         string   `json:"dir,omitempty"`
	Interval    string   `json:"interval"`
	Size        sizeV2   `json:"size"`
	Phase       string   `json:"phase,omitempty"`
	Allowed     []string `json:"allowed_types,omitempty"`
	DelayTarget string   `json:"delay_target,omitempty"`
	Naive       bool     `json:"naive,omitempty"`
}

// renegotiateV2 is the mid-run delay-target renegotiation operation.
type renegotiateV2 struct {
	Flow   int    `json:"flow"`
	Target string `json:"target"`
}

// piconetV2 is one piconet of a scatternet spec.
type piconetV2 struct {
	Name string  `json:"name"`
	GS   []gsV2  `json:"gs_flows,omitempty"`
	BE   []beV2  `json:"be_flows,omitempty"`
	SCO  []scoV2 `json:"sco_links,omitempty"`
}

// interferenceV2 is the FH co-channel coupling block.
type interferenceV2 struct {
	Enabled  bool   `json:"enabled"`
	Channels int    `json:"channels,omitempty"`
	Window   string `json:"window,omitempty"`
}

// pollerV2 names the best-effort poller plus its parameters.
type pollerV2 struct {
	Kind string `json:"kind"`
	PollerParams
}

// sizeV2 names a packet size distribution plus its parameters.
type sizeV2 struct {
	Kind  string `json:"kind"` // "uniform" or "fixed"
	Min   int    `json:"min,omitempty"`
	Max   int    `json:"max,omitempty"`
	Bytes int    `json:"bytes,omitempty"`
}

type gsV2 struct {
	ID       int      `json:"id"`
	Slave    int      `json:"slave"`
	Dir      string   `json:"dir"`
	Interval string   `json:"interval"`
	Size     sizeV2   `json:"size"`
	Phase    string   `json:"phase,omitempty"`
	Allowed  []string `json:"allowed_types,omitempty"`
}

type beV2 struct {
	ID       int      `json:"id"`
	Slave    int      `json:"slave"`
	Dir      string   `json:"dir"`
	RateKbps float64  `json:"rate_kbps"`
	Size     sizeV2   `json:"size"`
	Phase    string   `json:"phase,omitempty"`
	Allowed  []string `json:"allowed_types,omitempty"`
}

type scoV2 struct {
	Slave int    `json:"slave"`
	Type  string `json:"type"`
}

type timelineEvtV2 struct {
	At string `json:"at"`
	// Piconet addresses the target piconet of a flow/SCO operation in
	// scatternet specs ("" targets the first piconet).
	Piconet       string         `json:"piconet,omitempty"`
	AddGS         *gsV2          `json:"add_gs,omitempty"`
	AddBE         *beV2          `json:"add_be,omitempty"`
	Remove        int            `json:"remove_flow,omitempty"`
	AddSCO        *scoV2         `json:"add_sco,omitempty"`
	DropSCO       int            `json:"drop_sco,omitempty"`
	AddPiconet    *piconetV2     `json:"add_piconet,omitempty"`
	RemovePiconet string         `json:"remove_piconet,omitempty"`
	Move          *moveV2        `json:"move_flow,omitempty"`
	AddRoute      *routeV2       `json:"add_route,omitempty"`
	RemoveRoute   int            `json:"remove_route,omitempty"`
	Renegotiate   *renegotiateV2 `json:"renegotiate_flow,omitempty"`
}

// moveV2 is the make-before-break flow handoff operation.
type moveV2 struct {
	Flow int    `json:"flow"`
	To   string `json:"to,omitempty"`
}

// packetTypesByName resolves spec names like "DH3".
var packetTypesByName = map[string]baseband.PacketType{
	"DM1": baseband.TypeDM1, "DH1": baseband.TypeDH1,
	"DM3": baseband.TypeDM3, "DH3": baseband.TypeDH3,
	"DM5": baseband.TypeDM5, "DH5": baseband.TypeDH5,
	"HV1": baseband.TypeHV1, "HV2": baseband.TypeHV2, "HV3": baseband.TypeHV3,
}

func parseTypeSet(names []string) (baseband.TypeSet, error) {
	var set baseband.TypeSet
	for _, n := range names {
		t, ok := packetTypesByName[strings.ToUpper(strings.TrimSpace(n))]
		if !ok {
			return 0, fmt.Errorf("%w: unknown packet type %q", ErrBadSpec, n)
		}
		set = set.Add(t)
	}
	return set, nil
}

func parseDir(s string) (piconet.Direction, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "up":
		return piconet.Up, nil
	case "down":
		return piconet.Down, nil
	default:
		return 0, fmt.Errorf("%w: direction %q (want up or down)", ErrBadSpec, s)
	}
}

// durString renders a duration for the file ("" for zero, so zero fields
// stay out of the JSON).
func durString(d time.Duration) string {
	if d == 0 {
		return ""
	}
	return d.String()
}

// parseDur parses a duration field ("" means zero).
func parseDur(field, s string) (time.Duration, error) {
	if s == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("%w: %s: %v", ErrBadSpec, field, err)
	}
	return d, nil
}

// typeSetNames renders a type set as names in the canonical packet-type
// order (nil for the empty set).
func typeSetNames(set baseband.TypeSet) []string {
	var out []string
	for _, t := range set.Types() {
		out = append(out, t.String())
	}
	return out
}

// marshalGS converts a GS flow to its file form.
func marshalGS(g GSFlow) gsV2 {
	return gsV2{
		ID:       int(g.ID),
		Slave:    int(g.Slave),
		Dir:      g.Dir.String(),
		Interval: durString(g.Interval),
		Size:     sizeV2{Kind: "uniform", Min: g.MinSize, Max: g.MaxSize},
		Phase:    durString(g.Phase),
		Allowed:  typeSetNames(g.Allowed),
	}
}

// marshalBE converts a BE flow to its file form.
func marshalBE(b BEFlow) beV2 {
	return beV2{
		ID:       int(b.ID),
		Slave:    int(b.Slave),
		Dir:      b.Dir.String(),
		RateKbps: b.RateKbps,
		Size:     sizeV2{Kind: "fixed", Bytes: b.PacketSize},
		Phase:    durString(b.Phase),
		Allowed:  typeSetNames(b.Allowed),
	}
}

// marshalRoute converts a route to its file form.
func marshalRoute(rt RouteSpec) routeV2 {
	out := routeV2{
		ID:          int(rt.ID),
		Name:        rt.Name,
		Source:      rt.Source,
		Bridges:     rt.Bridges,
		Slave:       int(rt.Slave),
		Interval:    durString(rt.Interval),
		Size:        sizeV2{Kind: "uniform", Min: rt.MinSize, Max: rt.MaxSize},
		Phase:       durString(rt.Phase),
		Allowed:     typeSetNames(rt.Allowed),
		DelayTarget: durString(rt.DelayTarget),
		Naive:       rt.Naive,
	}
	if rt.Dir != 0 {
		out.Dir = rt.Dir.String()
	}
	return out
}

// unmarshalRoute converts a file route back.
func unmarshalRoute(r routeV2) (RouteSpec, error) {
	rt := RouteSpec{
		ID:      piconet.FlowID(r.ID),
		Name:    r.Name,
		Source:  r.Source,
		Bridges: r.Bridges,
		Slave:   piconet.SlaveID(r.Slave),
		Naive:   r.Naive,
	}
	var err error
	if r.Dir != "" {
		if rt.Dir, err = parseDir(r.Dir); err != nil {
			return RouteSpec{}, err
		}
	}
	if rt.Interval, err = parseDur("interval", r.Interval); err != nil {
		return RouteSpec{}, err
	}
	if rt.MinSize, rt.MaxSize, err = unmarshalSize(r.Size); err != nil {
		return RouteSpec{}, err
	}
	if rt.Phase, err = parseDur("phase", r.Phase); err != nil {
		return RouteSpec{}, err
	}
	if rt.Allowed, err = parseTypeSet(r.Allowed); err != nil {
		return RouteSpec{}, err
	}
	if rt.DelayTarget, err = parseDur("delay_target", r.DelayTarget); err != nil {
		return RouteSpec{}, err
	}
	return rt, nil
}

// marshalPiconet converts one scatternet piconet to its file form.
func marshalPiconet(ps PiconetSpec) piconetV2 {
	out := piconetV2{Name: ps.Name}
	for _, g := range ps.GS {
		out.GS = append(out.GS, marshalGS(g))
	}
	for _, b := range ps.BE {
		out.BE = append(out.BE, marshalBE(b))
	}
	for _, l := range ps.SCO {
		out.SCO = append(out.SCO, scoV2{Slave: int(l.Slave), Type: l.Type.String()})
	}
	return out
}

// Marshal renders a Spec as indented v2 JSON. The output is deterministic
// and round-trips: Unmarshal(Marshal(spec)) is fingerprint-identical to
// spec.
func Marshal(spec Spec) ([]byte, error) {
	fs, err := toV2(spec)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(fs); err != nil {
		return nil, fmt.Errorf("scenario: marshal: %w", err)
	}
	return buf.Bytes(), nil
}

// toV2 builds the v2 file form of a spec: the one rendering shared by
// Marshal and Canonical, so the omit-when-absent rules (here and in the
// omitempty tags above) are written once.
func toV2(spec Spec) (specV2, error) {
	fs := specV2{
		Format:              FormatV2,
		Name:                spec.Name,
		DelayTarget:         durString(spec.DelayTarget),
		Duration:            durString(spec.Duration),
		Seed:                spec.Seed,
		Allowed:             typeSetNames(spec.Allowed),
		DirectionAware:      spec.DirectionAware,
		WithoutPiggybacking: spec.WithoutPiggybacking,
		ARQ:                 spec.ARQ,
		LossRecovery:        spec.LossRecovery,
		BatchTraffic:        spec.BatchTraffic,
		InterferenceAware:   spec.InterferenceAwareAdmission,
		AdmissionDerate:     spec.AdmissionDerate,
	}
	if spec.Interference.Enabled {
		fs.Interference = &interferenceV2{
			Enabled:  true,
			Channels: spec.Interference.Channels,
			Window:   durString(spec.Interference.Window),
		}
	}
	// Names are emitted defaulted, so an unnamed piconet reads back as
	// the same piconet Canonical and Run resolve it to.
	for _, ps := range withPiconetNames(spec.Piconets) {
		fs.Piconets = append(fs.Piconets, marshalPiconet(ps))
	}
	for _, b := range spec.Bridges {
		out := bridgeV2{Name: b.Name, Period: b.Period.String()}
		for _, rs := range b.Residency {
			out.Residency = append(out.Residency, residencyV2{
				Piconet: rs.Piconet, Slave: int(rs.Slave),
				Start: durString(rs.Start), End: rs.End.String(),
			})
		}
		fs.Bridges = append(fs.Bridges, out)
	}
	for _, rt := range spec.Routes {
		fs.Routes = append(fs.Routes, marshalRoute(rt))
	}
	if !spec.Faults.Empty() {
		fp := &faultsV2{}
		for _, o := range spec.Faults.Outages {
			fp.Outages = append(fp.Outages, outageV2{
				Piconet: o.Piconet, Slave: int(o.Slave),
				Start: o.Start.String(), End: o.End.String(),
			})
		}
		for _, d := range spec.Faults.Departures {
			fp.Departures = append(fp.Departures, departureV2{
				Piconet: d.Piconet, Slave: int(d.Slave),
				At: d.At.String(), ReturnAt: durString(d.ReturnAt),
			})
		}
		for _, c := range spec.Faults.Crashes {
			fp.Crashes = append(fp.Crashes, crashV2{Piconet: c.Piconet, At: c.At.String()})
		}
		fs.Faults = fp
	}
	if spec.Recovery != (RecoverySpec{}) {
		if !spec.Recovery.Policy.Valid() {
			return specV2{}, fmt.Errorf("%w: recovery policy %q", ErrBadSpec, spec.Recovery.Policy)
		}
		fs.Recovery = &recoveryV2{
			Supervision:   spec.Recovery.Supervision,
			Policy:        string(spec.Recovery.Policy),
			DegradeFactor: spec.Recovery.DegradeFactor,
			HandoffTarget: spec.Recovery.HandoffTarget,
		}
	}
	switch spec.Mode {
	case 0:
	case core.FixedInterval:
		fs.Mode = "fixed"
	case core.VariableInterval:
		fs.Mode = "variable"
	default:
		return specV2{}, fmt.Errorf("%w: mode %v", ErrBadSpec, spec.Mode)
	}
	if spec.RulesSet {
		rules := spec.Rules.String()
		fs.Rules = &rules
	}
	if spec.BEPoller != "" || spec.PFPThreshold > 0 {
		kind := string(spec.BEPoller)
		if kind == "" {
			kind = string(BEPFP)
		}
		fs.Poller = &pollerV2{Kind: kind, PollerParams: PollerParams{PFPThreshold: spec.PFPThreshold}}
	}
	if !spec.Radio.IsIdeal() {
		radio := spec.Radio
		fs.Radio = &radio
	}
	fs.piconetV2 = marshalPiconet(PiconetSpec{GS: spec.GS, BE: spec.BE, SCO: spec.SCO})
	for i, ev := range spec.Timeline {
		if ev.ops() != 1 {
			return specV2{}, fmt.Errorf("%w: timeline[%d] sets %d operations", ErrBadSpec, i, ev.ops())
		}
		out := timelineEvtV2{At: ev.At.String(), Piconet: ev.Piconet}
		switch {
		case ev.AddGS != nil:
			g := marshalGS(*ev.AddGS)
			out.AddGS = &g
		case ev.AddBE != nil:
			b := marshalBE(*ev.AddBE)
			out.AddBE = &b
		case ev.Remove != piconet.None:
			out.Remove = int(ev.Remove)
		case ev.AddSCO != nil:
			out.AddSCO = &scoV2{Slave: int(ev.AddSCO.Slave), Type: ev.AddSCO.Type.String()}
		case ev.DropSCO != 0:
			out.DropSCO = int(ev.DropSCO)
		case ev.AddPiconet != nil:
			ps := marshalPiconet(*ev.AddPiconet)
			out.AddPiconet = &ps
		case ev.RemovePiconet != "":
			out.RemovePiconet = ev.RemovePiconet
		case ev.Move != nil:
			out.Move = &moveV2{Flow: int(ev.Move.Flow), To: ev.Move.To}
		case ev.AddRoute != nil:
			rt := marshalRoute(*ev.AddRoute)
			out.AddRoute = &rt
		case ev.RemoveRoute != piconet.None:
			out.RemoveRoute = int(ev.RemoveRoute)
		case ev.Renegotiate != nil:
			out.Renegotiate = &renegotiateV2{
				Flow: int(ev.Renegotiate.Flow), Target: ev.Renegotiate.Target.String(),
			}
		}
		fs.Timeline = append(fs.Timeline, out)
	}
	return fs, nil
}

// unmarshalSize resolves a size distribution into its [min, max] support.
func unmarshalSize(s sizeV2) (minSize, maxSize int, err error) {
	switch strings.ToLower(strings.TrimSpace(s.Kind)) {
	case "uniform":
		return s.Min, s.Max, nil
	case "fixed":
		return s.Bytes, s.Bytes, nil
	default:
		return 0, 0, fmt.Errorf("%w: unknown size distribution %q", ErrBadSpec, s.Kind)
	}
}

// unmarshalGS converts a file GS flow back.
func unmarshalGS(g gsV2) (GSFlow, error) {
	dir, err := parseDir(g.Dir)
	if err != nil {
		return GSFlow{}, err
	}
	interval, err := parseDur("interval", g.Interval)
	if err != nil {
		return GSFlow{}, err
	}
	phase, err := parseDur("phase", g.Phase)
	if err != nil {
		return GSFlow{}, err
	}
	minSize, maxSize, err := unmarshalSize(g.Size)
	if err != nil {
		return GSFlow{}, err
	}
	allowed, err := parseTypeSet(g.Allowed)
	if err != nil {
		return GSFlow{}, err
	}
	return GSFlow{
		ID:       piconet.FlowID(g.ID),
		Slave:    piconet.SlaveID(g.Slave),
		Dir:      dir,
		Interval: interval,
		MinSize:  minSize,
		MaxSize:  maxSize,
		Phase:    phase,
		Allowed:  allowed,
	}, nil
}

// unmarshalBE converts a file BE flow back.
func unmarshalBE(b beV2) (BEFlow, error) {
	dir, err := parseDir(b.Dir)
	if err != nil {
		return BEFlow{}, err
	}
	phase, err := parseDur("phase", b.Phase)
	if err != nil {
		return BEFlow{}, err
	}
	minSize, maxSize, err := unmarshalSize(b.Size)
	if err != nil {
		return BEFlow{}, err
	}
	if minSize != maxSize {
		return BEFlow{}, fmt.Errorf("%w: best-effort flows use fixed packet sizes", ErrBadSpec)
	}
	allowed, err := parseTypeSet(b.Allowed)
	if err != nil {
		return BEFlow{}, err
	}
	return BEFlow{
		ID:         piconet.FlowID(b.ID),
		Slave:      piconet.SlaveID(b.Slave),
		Dir:        dir,
		RateKbps:   b.RateKbps,
		PacketSize: minSize,
		Phase:      phase,
		Allowed:    allowed,
	}, nil
}

// unmarshalSCO converts a file SCO link back.
func unmarshalSCO(l scoV2) (SCOLinkSpec, error) {
	t, ok := packetTypesByName[strings.ToUpper(strings.TrimSpace(l.Type))]
	if !ok || !t.IsSCO() {
		return SCOLinkSpec{}, fmt.Errorf("%w: SCO type %q", ErrBadSpec, l.Type)
	}
	return SCOLinkSpec{Slave: piconet.SlaveID(l.Slave), Type: t}, nil
}

// unmarshalPiconet converts a file piconet back.
func unmarshalPiconet(p piconetV2) (PiconetSpec, error) {
	out := PiconetSpec{Name: p.Name}
	for _, g := range p.GS {
		flow, err := unmarshalGS(g)
		if err != nil {
			return PiconetSpec{}, fmt.Errorf("gs flow %d: %w", g.ID, err)
		}
		out.GS = append(out.GS, flow)
	}
	for _, b := range p.BE {
		flow, err := unmarshalBE(b)
		if err != nil {
			return PiconetSpec{}, fmt.Errorf("be flow %d: %w", b.ID, err)
		}
		out.BE = append(out.BE, flow)
	}
	for _, l := range p.SCO {
		link, err := unmarshalSCO(l)
		if err != nil {
			return PiconetSpec{}, err
		}
		out.SCO = append(out.SCO, link)
	}
	return out, nil
}

// parseRules parses an improvements rendering ("a+b+c", "none", "a").
func parseRules(s string) (core.Improvements, error) {
	var rules core.Improvements
	s = strings.ToLower(strings.TrimSpace(s))
	if s == "none" || s == "" {
		return 0, nil
	}
	for _, part := range strings.Split(s, "+") {
		switch strings.TrimSpace(part) {
		case "a":
			rules |= core.PostponeAfterPacket
		case "b":
			rules |= core.PostponeAfterEmpty
		case "c":
			rules |= core.SkipEmptyDown
		default:
			return 0, fmt.Errorf("%w: unknown improvement rule %q", ErrBadSpec, part)
		}
	}
	return rules, nil
}

// Unmarshal parses v2 JSON bytes into a Spec.
func Unmarshal(data []byte) (Spec, error) {
	// The format tag is checked before the strict decode, so a file in
	// another format fails naming the format rather than its first field
	// v2 does not know.
	var tag struct {
		Format string `json:"format"`
	}
	if err := json.Unmarshal(data, &tag); err != nil {
		return Spec{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	if tag.Format != FormatV2 {
		return Spec{}, fmt.Errorf("%w: format %q (want %q)", ErrBadSpec, tag.Format, FormatV2)
	}
	var fs specV2
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&fs); err != nil {
		return Spec{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	spec := Spec{
		Name:                fs.Name,
		Seed:                fs.Seed,
		DirectionAware:      fs.DirectionAware,
		WithoutPiggybacking: fs.WithoutPiggybacking,
		ARQ:                 fs.ARQ,
		LossRecovery:        fs.LossRecovery,
	}
	var err error
	if spec.DelayTarget, err = parseDur("delay_target", fs.DelayTarget); err != nil {
		return Spec{}, err
	}
	if spec.Duration, err = parseDur("duration", fs.Duration); err != nil {
		return Spec{}, err
	}
	switch strings.ToLower(fs.Mode) {
	case "":
	case "variable":
		spec.Mode = core.VariableInterval
	case "fixed":
		spec.Mode = core.FixedInterval
	default:
		return Spec{}, fmt.Errorf("%w: mode %q", ErrBadSpec, fs.Mode)
	}
	if fs.Rules != nil {
		if spec.Rules, err = parseRules(*fs.Rules); err != nil {
			return Spec{}, err
		}
		spec.RulesSet = true
	}
	if fs.Poller != nil {
		spec.BEPoller = BEPollerKind(fs.Poller.Kind)
		spec.PFPThreshold = fs.Poller.PFPThreshold
		if _, err := NewBEPoller(spec.BEPoller, fs.Poller.PollerParams); err != nil {
			return Spec{}, err
		}
	}
	if spec.Allowed, err = parseTypeSet(fs.Allowed); err != nil {
		return Spec{}, err
	}
	if fs.Radio != nil {
		spec.Radio = *fs.Radio
		if _, err := spec.Radio.Model(); err != nil {
			return Spec{}, err
		}
	}
	spec.BatchTraffic = fs.BatchTraffic
	spec.InterferenceAwareAdmission = fs.InterferenceAware
	if fs.AdmissionDerate < 0 || fs.AdmissionDerate >= 1 {
		return Spec{}, fmt.Errorf("%w: admission_derate %g outside [0,1)", ErrBadSpec, fs.AdmissionDerate)
	}
	spec.AdmissionDerate = fs.AdmissionDerate
	if fs.Interference != nil {
		spec.Interference = InterferenceSpec{
			Enabled:  fs.Interference.Enabled,
			Channels: fs.Interference.Channels,
		}
		if spec.Interference.Window, err = parseDur("interference window", fs.Interference.Window); err != nil {
			return Spec{}, err
		}
	}
	for _, p := range fs.Piconets {
		ps, err := unmarshalPiconet(p)
		if err != nil {
			return Spec{}, fmt.Errorf("piconet %q: %w", p.Name, err)
		}
		spec.Piconets = append(spec.Piconets, ps)
	}
	for _, b := range fs.Bridges {
		out := BridgeSpec{Name: b.Name}
		if out.Period, err = parseDur("period", b.Period); err != nil {
			return Spec{}, fmt.Errorf("bridge %q: %w", b.Name, err)
		}
		for _, rs := range b.Residency {
			res := ResidencySpec{Piconet: rs.Piconet, Slave: piconet.SlaveID(rs.Slave)}
			if res.Start, err = parseDur("start", rs.Start); err != nil {
				return Spec{}, fmt.Errorf("bridge %q: %w", b.Name, err)
			}
			if res.End, err = parseDur("end", rs.End); err != nil {
				return Spec{}, fmt.Errorf("bridge %q: %w", b.Name, err)
			}
			out.Residency = append(out.Residency, res)
		}
		spec.Bridges = append(spec.Bridges, out)
	}
	for _, r := range fs.Routes {
		rt, err := unmarshalRoute(r)
		if err != nil {
			return Spec{}, fmt.Errorf("route %d: %w", r.ID, err)
		}
		spec.Routes = append(spec.Routes, rt)
	}
	if fs.Faults != nil {
		for i, o := range fs.Faults.Outages {
			out := faults.LinkOutage{Piconet: o.Piconet, Slave: piconet.SlaveID(o.Slave)}
			if out.Start, err = parseDur("start", o.Start); err != nil {
				return Spec{}, fmt.Errorf("faults.outages[%d]: %w", i, err)
			}
			if out.End, err = parseDur("end", o.End); err != nil {
				return Spec{}, fmt.Errorf("faults.outages[%d]: %w", i, err)
			}
			spec.Faults.Outages = append(spec.Faults.Outages, out)
		}
		for i, d := range fs.Faults.Departures {
			dep := faults.SlaveDeparture{Piconet: d.Piconet, Slave: piconet.SlaveID(d.Slave)}
			if dep.At, err = parseDur("at", d.At); err != nil {
				return Spec{}, fmt.Errorf("faults.departures[%d]: %w", i, err)
			}
			if dep.ReturnAt, err = parseDur("return_at", d.ReturnAt); err != nil {
				return Spec{}, fmt.Errorf("faults.departures[%d]: %w", i, err)
			}
			spec.Faults.Departures = append(spec.Faults.Departures, dep)
		}
		for i, c := range fs.Faults.Crashes {
			cr := faults.MasterCrash{Piconet: c.Piconet}
			if cr.At, err = parseDur("at", c.At); err != nil {
				return Spec{}, fmt.Errorf("faults.crashes[%d]: %w", i, err)
			}
			spec.Faults.Crashes = append(spec.Faults.Crashes, cr)
		}
	}
	if fs.Recovery != nil {
		spec.Recovery = RecoverySpec{
			Supervision:   fs.Recovery.Supervision,
			Policy:        faults.Policy(fs.Recovery.Policy),
			DegradeFactor: fs.Recovery.DegradeFactor,
			HandoffTarget: fs.Recovery.HandoffTarget,
		}
	}
	flat, err := unmarshalPiconet(fs.piconetV2)
	if err != nil {
		return Spec{}, err
	}
	spec.GS, spec.BE, spec.SCO = flat.GS, flat.BE, flat.SCO
	for i, ev := range fs.Timeline {
		at, err := parseDur("at", ev.At)
		if err != nil {
			return Spec{}, fmt.Errorf("timeline[%d]: %w", i, err)
		}
		// Count the set operation fields on the raw file event: the
		// switch below would silently take the first one, and the
		// later validateTimeline pass could no longer see the others.
		ops := 0
		for _, set := range []bool{ev.AddGS != nil, ev.AddBE != nil,
			ev.Remove != 0, ev.AddSCO != nil, ev.DropSCO != 0,
			ev.AddPiconet != nil, ev.RemovePiconet != "", ev.Move != nil,
			ev.AddRoute != nil, ev.RemoveRoute != 0, ev.Renegotiate != nil} {
			if set {
				ops++
			}
		}
		if ops > 1 {
			return Spec{}, fmt.Errorf("%w: timeline[%d] sets %d operations (want exactly 1)",
				ErrBadSpec, i, ops)
		}
		out := TimelineEvent{At: at, Piconet: ev.Piconet}
		switch {
		case ev.AddGS != nil:
			flow, err := unmarshalGS(*ev.AddGS)
			if err != nil {
				return Spec{}, fmt.Errorf("timeline[%d]: %w", i, err)
			}
			out.AddGS = &flow
		case ev.AddBE != nil:
			flow, err := unmarshalBE(*ev.AddBE)
			if err != nil {
				return Spec{}, fmt.Errorf("timeline[%d]: %w", i, err)
			}
			out.AddBE = &flow
		case ev.Remove != 0:
			out.Remove = piconet.FlowID(ev.Remove)
		case ev.AddSCO != nil:
			link, err := unmarshalSCO(*ev.AddSCO)
			if err != nil {
				return Spec{}, fmt.Errorf("timeline[%d]: %w", i, err)
			}
			out.AddSCO = &link
		case ev.DropSCO != 0:
			out.DropSCO = piconet.SlaveID(ev.DropSCO)
		case ev.AddPiconet != nil:
			ps, err := unmarshalPiconet(*ev.AddPiconet)
			if err != nil {
				return Spec{}, fmt.Errorf("timeline[%d]: %w", i, err)
			}
			out.AddPiconet = &ps
		case ev.RemovePiconet != "":
			out.RemovePiconet = ev.RemovePiconet
		case ev.Move != nil:
			out.Move = &MoveFlow{Flow: piconet.FlowID(ev.Move.Flow), To: ev.Move.To}
		case ev.AddRoute != nil:
			rt, err := unmarshalRoute(*ev.AddRoute)
			if err != nil {
				return Spec{}, fmt.Errorf("timeline[%d]: %w", i, err)
			}
			out.AddRoute = &rt
		case ev.RemoveRoute != 0:
			out.RemoveRoute = piconet.FlowID(ev.RemoveRoute)
		case ev.Renegotiate != nil:
			rn := RenegotiateFlow{Flow: piconet.FlowID(ev.Renegotiate.Flow)}
			if rn.Target, err = parseDur("target", ev.Renegotiate.Target); err != nil {
				return Spec{}, fmt.Errorf("timeline[%d]: %w", i, err)
			}
			out.Renegotiate = &rn
		default:
			return Spec{}, fmt.Errorf("%w: timeline[%d] sets no operation", ErrBadSpec, i)
		}
		spec.Timeline = append(spec.Timeline, out)
	}
	if err := spec.WithDefaults().validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// LoadFile reads a v2 scenario file (see Marshal).
func LoadFile(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	return Unmarshal(data)
}
