package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
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

// specV2 is the v2 on-disk form of a Spec. The mirror structs below carry
// durations, directions and packet-type sets as wire types that spell
// themselves (durV2, blankDurV2, dirV2, typesV2), so converting to and
// from a Spec is a field copy. Their marshal methods take value
// receivers, so a specV2 encodes the same by value or by pointer.
type specV2 struct {
	Format              string          `json:"format"`
	Name                string          `json:"name,omitempty"`
	DelayTarget         durV2           `json:"delay_target,omitempty"`
	Duration            durV2           `json:"duration,omitempty"`
	Seed                int64           `json:"seed,omitempty"`
	Mode                string          `json:"mode,omitempty"`
	Rules               *string         `json:"rules,omitempty"`
	Poller              *pollerV2       `json:"poller,omitempty"`
	Allowed             typesV2         `json:"allowed_types,omitzero"`
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
	Piconet string          `json:"piconet,omitempty"`
	Slave   piconet.SlaveID `json:"slave"`
	Start   durV2           `json:"start"`
	End     durV2           `json:"end"`
}

type departureV2 struct {
	Piconet  string          `json:"piconet,omitempty"`
	Slave    piconet.SlaveID `json:"slave"`
	At       durV2           `json:"at"`
	ReturnAt durV2           `json:"return_at,omitempty"`
}

type crashV2 struct {
	Piconet string `json:"piconet,omitempty"`
	At      durV2  `json:"at"`
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
	Period    durV2         `json:"period"`
	Residency []residencyV2 `json:"residency"`
}

type residencyV2 struct {
	Piconet string          `json:"piconet,omitempty"`
	Slave   piconet.SlaveID `json:"slave"`
	Start   durV2           `json:"start,omitempty"`
	End     durV2           `json:"end"`
}

// routeV2 is one end-to-end route.
type routeV2 struct {
	ID          piconet.FlowID  `json:"id"`
	Name        string          `json:"name,omitempty"`
	Source      string          `json:"source,omitempty"`
	Bridges     []string        `json:"bridges,omitempty"`
	Slave       piconet.SlaveID `json:"slave,omitempty"`
	Dir         dirV2           `json:"dir,omitempty"`
	Interval    blankDurV2      `json:"interval"`
	Size        sizeV2          `json:"size"`
	Phase       durV2           `json:"phase,omitempty"`
	Allowed     typesV2         `json:"allowed_types,omitzero"`
	DelayTarget durV2           `json:"delay_target,omitempty"`
	Naive       bool            `json:"naive,omitempty"`
}

// renegotiateV2 is the mid-run delay-target renegotiation operation.
type renegotiateV2 struct {
	Flow   piconet.FlowID `json:"flow"`
	Target durV2          `json:"target"`
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
	Enabled  bool  `json:"enabled"`
	Channels int   `json:"channels,omitempty"`
	Window   durV2 `json:"window,omitempty"`
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
	ID       piconet.FlowID  `json:"id"`
	Slave    piconet.SlaveID `json:"slave"`
	Dir      dirV2           `json:"dir"`
	Interval blankDurV2      `json:"interval"`
	Size     sizeV2          `json:"size"`
	Phase    durV2           `json:"phase,omitempty"`
	Allowed  typesV2         `json:"allowed_types,omitzero"`
}

type beV2 struct {
	ID       piconet.FlowID  `json:"id"`
	Slave    piconet.SlaveID `json:"slave"`
	Dir      dirV2           `json:"dir"`
	RateKbps float64         `json:"rate_kbps"`
	Size     sizeV2          `json:"size"`
	Phase    durV2           `json:"phase,omitempty"`
	Allowed  typesV2         `json:"allowed_types,omitzero"`
}

type scoV2 struct {
	Slave piconet.SlaveID `json:"slave"`
	Type  string          `json:"type"`
}

type timelineEvtV2 struct {
	At durV2 `json:"at"`
	// Piconet addresses the target piconet of a flow/SCO operation in
	// scatternet specs ("" targets the first piconet).
	Piconet       string          `json:"piconet,omitempty"`
	AddGS         *gsV2           `json:"add_gs,omitempty"`
	AddBE         *beV2           `json:"add_be,omitempty"`
	Remove        piconet.FlowID  `json:"remove_flow,omitempty"`
	AddSCO        *scoV2          `json:"add_sco,omitempty"`
	DropSCO       piconet.SlaveID `json:"drop_sco,omitempty"`
	AddPiconet    *piconetV2      `json:"add_piconet,omitempty"`
	RemovePiconet string          `json:"remove_piconet,omitempty"`
	Move          *moveV2         `json:"move_flow,omitempty"`
	AddRoute      *routeV2        `json:"add_route,omitempty"`
	RemoveRoute   piconet.FlowID  `json:"remove_route,omitempty"`
	Renegotiate   *renegotiateV2  `json:"renegotiate_flow,omitempty"`
}

// moveV2 is the make-before-break flow handoff operation (MoveFlow's
// fields, so the two convert into each other).
type moveV2 struct {
	Flow piconet.FlowID `json:"flow"`
	To   string         `json:"to,omitempty"`
}

// durV2 is a duration on the wire: a Go duration string ("20ms", "0s" for
// zero), so values round-trip exactly. "" decodes as zero.
type durV2 time.Duration

func (d durV2) MarshalText() ([]byte, error) { return []byte(time.Duration(d).String()), nil }

func (d *durV2) UnmarshalText(b []byte) error {
	if len(b) == 0 {
		*d = 0
		return nil
	}
	v, err := time.ParseDuration(string(b))
	*d = durV2(v)
	return err
}

// blankDurV2 is a durV2 that renders zero as "": the flows' and routes'
// interval, which the file always carries.
type blankDurV2 time.Duration

func (d blankDurV2) MarshalText() ([]byte, error) {
	if d == 0 {
		return nil, nil
	}
	return durV2(d).MarshalText()
}

func (d *blankDurV2) UnmarshalText(b []byte) error { return (*durV2)(d).UnmarshalText(b) }

// dirV2 is a flow direction on the wire: "up" or "down" (any case). ""
// decodes as unset, which validation refuses for flows.
type dirV2 piconet.Direction

func (d dirV2) MarshalText() ([]byte, error) { return []byte(piconet.Direction(d).String()), nil }

func (d *dirV2) UnmarshalText(b []byte) error {
	switch strings.ToLower(strings.TrimSpace(string(b))) {
	case "":
		*d = 0
	case "up":
		*d = dirV2(piconet.Up)
	case "down":
		*d = dirV2(piconet.Down)
	default:
		return fmt.Errorf("direction %q (want up or down)", b)
	}
	return nil
}

// typesV2 is a packet-type set on the wire: its names in the canonical
// packet-type order ("DH1", any case on input), omitted when it names none.
type typesV2 baseband.TypeSet

func (s typesV2) IsZero() bool { return len(baseband.TypeSet(s).Types()) == 0 }

func (s typesV2) MarshalJSON() ([]byte, error) {
	b := []byte{'['}
	for i, t := range baseband.TypeSet(s).Types() {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, t.String())
	}
	return append(b, ']'), nil
}

func (s *typesV2) UnmarshalJSON(b []byte) error {
	var names []string
	if err := json.Unmarshal(b, &names); err != nil {
		return err
	}
	var set baseband.TypeSet
	for _, n := range names {
		t := packetTypeByName(n)
		if !t.Valid() {
			return fmt.Errorf("unknown packet type %q", n)
		}
		set = set.Add(t)
	}
	*s = typesV2(set)
	return nil
}

// packetTypeByName resolves a spec name like "DH3" (any case) to the
// valid packet type whose String it is, or to the invalid zero type.
func packetTypeByName(name string) baseband.PacketType {
	name = strings.TrimSpace(name)
	for t := baseband.TypeNULL; t.Valid(); t++ {
		if strings.EqualFold(t.String(), name) {
			return t
		}
	}
	return 0
}

// marshalGS converts a GS flow to its file form.
func marshalGS(g GSFlow) gsV2 {
	return gsV2{
		ID:       g.ID,
		Slave:    g.Slave,
		Dir:      dirV2(g.Dir),
		Interval: blankDurV2(g.Interval),
		Size:     sizeV2{Kind: "uniform", Min: g.MinSize, Max: g.MaxSize},
		Phase:    durV2(g.Phase),
		Allowed:  typesV2(g.Allowed),
	}
}

// marshalBE converts a BE flow to its file form.
func marshalBE(b BEFlow) beV2 {
	return beV2{
		ID:       b.ID,
		Slave:    b.Slave,
		Dir:      dirV2(b.Dir),
		RateKbps: b.RateKbps,
		Size:     sizeV2{Kind: "fixed", Bytes: b.PacketSize},
		Phase:    durV2(b.Phase),
		Allowed:  typesV2(b.Allowed),
	}
}

// marshalRoute converts a route to its file form.
func marshalRoute(rt RouteSpec) routeV2 {
	return routeV2{
		ID:          rt.ID,
		Name:        rt.Name,
		Source:      rt.Source,
		Bridges:     rt.Bridges,
		Slave:       rt.Slave,
		Dir:         dirV2(rt.Dir),
		Interval:    blankDurV2(rt.Interval),
		Size:        sizeV2{Kind: "uniform", Min: rt.MinSize, Max: rt.MaxSize},
		Phase:       durV2(rt.Phase),
		Allowed:     typesV2(rt.Allowed),
		DelayTarget: durV2(rt.DelayTarget),
		Naive:       rt.Naive,
	}
}

// unmarshalRoute converts a file route back.
func unmarshalRoute(r routeV2) (RouteSpec, error) {
	minSize, maxSize, err := unmarshalSize(r.Size)
	return RouteSpec{
		ID:          r.ID,
		Name:        r.Name,
		Source:      r.Source,
		Bridges:     r.Bridges,
		Slave:       r.Slave,
		Dir:         piconet.Direction(r.Dir),
		Interval:    time.Duration(r.Interval),
		MinSize:     minSize,
		MaxSize:     maxSize,
		Phase:       time.Duration(r.Phase),
		Allowed:     baseband.TypeSet(r.Allowed),
		DelayTarget: time.Duration(r.DelayTarget),
		Naive:       r.Naive,
	}, err
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
		out.SCO = append(out.SCO, scoV2{Slave: l.Slave, Type: l.Type.String()})
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
		DelayTarget:         durV2(spec.DelayTarget),
		Duration:            durV2(spec.Duration),
		Seed:                spec.Seed,
		Allowed:             typesV2(spec.Allowed),
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
			Window:   durV2(spec.Interference.Window),
		}
	}
	// Names are emitted defaulted, so an unnamed piconet reads back as
	// the same piconet Canonical and Run resolve it to.
	for _, ps := range withPiconetNames(spec.Piconets) {
		fs.Piconets = append(fs.Piconets, marshalPiconet(ps))
	}
	for _, b := range spec.Bridges {
		out := bridgeV2{Name: b.Name, Period: durV2(b.Period)}
		for _, rs := range b.Residency {
			out.Residency = append(out.Residency, residencyV2{
				Piconet: rs.Piconet, Slave: rs.Slave,
				Start: durV2(rs.Start), End: durV2(rs.End),
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
				Piconet: o.Piconet, Slave: o.Slave,
				Start: durV2(o.Start), End: durV2(o.End),
			})
		}
		for _, d := range spec.Faults.Departures {
			fp.Departures = append(fp.Departures, departureV2{
				Piconet: d.Piconet, Slave: d.Slave,
				At: durV2(d.At), ReturnAt: durV2(d.ReturnAt),
			})
		}
		for _, c := range spec.Faults.Crashes {
			fp.Crashes = append(fp.Crashes, crashV2{Piconet: c.Piconet, At: durV2(c.At)})
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
		out := timelineEvtV2{
			At:            durV2(ev.At),
			Piconet:       ev.Piconet,
			Remove:        ev.Remove,
			DropSCO:       ev.DropSCO,
			RemovePiconet: ev.RemovePiconet,
			Move:          (*moveV2)(ev.Move),
			RemoveRoute:   ev.RemoveRoute,
		}
		switch {
		case ev.AddGS != nil:
			g := marshalGS(*ev.AddGS)
			out.AddGS = &g
		case ev.AddBE != nil:
			b := marshalBE(*ev.AddBE)
			out.AddBE = &b
		case ev.AddSCO != nil:
			out.AddSCO = &scoV2{Slave: ev.AddSCO.Slave, Type: ev.AddSCO.Type.String()}
		case ev.AddPiconet != nil:
			ps := marshalPiconet(*ev.AddPiconet)
			out.AddPiconet = &ps
		case ev.AddRoute != nil:
			rt := marshalRoute(*ev.AddRoute)
			out.AddRoute = &rt
		case ev.Renegotiate != nil:
			out.Renegotiate = &renegotiateV2{Flow: ev.Renegotiate.Flow, Target: durV2(ev.Renegotiate.Target)}
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
	minSize, maxSize, err := unmarshalSize(g.Size)
	return GSFlow{
		ID:       g.ID,
		Slave:    g.Slave,
		Dir:      piconet.Direction(g.Dir),
		Interval: time.Duration(g.Interval),
		MinSize:  minSize,
		MaxSize:  maxSize,
		Phase:    time.Duration(g.Phase),
		Allowed:  baseband.TypeSet(g.Allowed),
	}, err
}

// unmarshalBE converts a file BE flow back.
func unmarshalBE(b beV2) (BEFlow, error) {
	minSize, maxSize, err := unmarshalSize(b.Size)
	if err == nil && minSize != maxSize {
		err = fmt.Errorf("%w: best-effort flows use fixed packet sizes", ErrBadSpec)
	}
	return BEFlow{
		ID:         b.ID,
		Slave:      b.Slave,
		Dir:        piconet.Direction(b.Dir),
		RateKbps:   b.RateKbps,
		PacketSize: minSize,
		Phase:      time.Duration(b.Phase),
		Allowed:    baseband.TypeSet(b.Allowed),
	}, err
}

// unmarshalSCO converts a file SCO link back.
func unmarshalSCO(l scoV2) (SCOLinkSpec, error) {
	t := packetTypeByName(l.Type)
	if !t.IsSCO() {
		return SCOLinkSpec{}, fmt.Errorf("%w: SCO type %q", ErrBadSpec, l.Type)
	}
	return SCOLinkSpec{Slave: l.Slave, Type: t}, nil
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
		Name:                       fs.Name,
		DelayTarget:                time.Duration(fs.DelayTarget),
		Duration:                   time.Duration(fs.Duration),
		Seed:                       fs.Seed,
		Allowed:                    baseband.TypeSet(fs.Allowed),
		DirectionAware:             fs.DirectionAware,
		WithoutPiggybacking:        fs.WithoutPiggybacking,
		ARQ:                        fs.ARQ,
		LossRecovery:               fs.LossRecovery,
		BatchTraffic:               fs.BatchTraffic,
		InterferenceAwareAdmission: fs.InterferenceAware,
		AdmissionDerate:            fs.AdmissionDerate,
	}
	var err error
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
	if fs.Radio != nil {
		spec.Radio = *fs.Radio
		if _, err := spec.Radio.Model(); err != nil {
			return Spec{}, err
		}
	}
	if fs.AdmissionDerate < 0 || fs.AdmissionDerate >= 1 {
		return Spec{}, fmt.Errorf("%w: admission_derate %g outside [0,1)", ErrBadSpec, fs.AdmissionDerate)
	}
	if fs.Interference != nil {
		spec.Interference = InterferenceSpec{
			Enabled:  fs.Interference.Enabled,
			Channels: fs.Interference.Channels,
			Window:   time.Duration(fs.Interference.Window),
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
		out := BridgeSpec{Name: b.Name, Period: time.Duration(b.Period)}
		for _, rs := range b.Residency {
			out.Residency = append(out.Residency, ResidencySpec{
				Piconet: rs.Piconet, Slave: rs.Slave,
				Start: time.Duration(rs.Start), End: time.Duration(rs.End),
			})
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
		for _, o := range fs.Faults.Outages {
			spec.Faults.Outages = append(spec.Faults.Outages, faults.LinkOutage{
				Piconet: o.Piconet, Slave: o.Slave,
				Start: time.Duration(o.Start), End: time.Duration(o.End),
			})
		}
		for _, d := range fs.Faults.Departures {
			spec.Faults.Departures = append(spec.Faults.Departures, faults.SlaveDeparture{
				Piconet: d.Piconet, Slave: d.Slave,
				At: time.Duration(d.At), ReturnAt: time.Duration(d.ReturnAt),
			})
		}
		for _, c := range fs.Faults.Crashes {
			spec.Faults.Crashes = append(spec.Faults.Crashes, faults.MasterCrash{Piconet: c.Piconet, At: time.Duration(c.At)})
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
		// Every set field converts; an event must then carry exactly one
		// operation.
		out := TimelineEvent{
			At:            time.Duration(ev.At),
			Piconet:       ev.Piconet,
			Remove:        ev.Remove,
			DropSCO:       ev.DropSCO,
			RemovePiconet: ev.RemovePiconet,
			Move:          (*MoveFlow)(ev.Move),
			RemoveRoute:   ev.RemoveRoute,
		}
		var errs []error
		if ev.AddGS != nil {
			flow, err := unmarshalGS(*ev.AddGS)
			out.AddGS, errs = &flow, append(errs, err)
		}
		if ev.AddBE != nil {
			flow, err := unmarshalBE(*ev.AddBE)
			out.AddBE, errs = &flow, append(errs, err)
		}
		if ev.AddSCO != nil {
			link, err := unmarshalSCO(*ev.AddSCO)
			out.AddSCO, errs = &link, append(errs, err)
		}
		if ev.AddPiconet != nil {
			ps, err := unmarshalPiconet(*ev.AddPiconet)
			out.AddPiconet, errs = &ps, append(errs, err)
		}
		if ev.AddRoute != nil {
			rt, err := unmarshalRoute(*ev.AddRoute)
			out.AddRoute, errs = &rt, append(errs, err)
		}
		if ev.Renegotiate != nil {
			out.Renegotiate = &RenegotiateFlow{Flow: ev.Renegotiate.Flow, Target: time.Duration(ev.Renegotiate.Target)}
		}
		if err := errors.Join(errs...); err != nil {
			return Spec{}, fmt.Errorf("timeline[%d]: %w", i, err)
		}
		if n := out.ops(); n != 1 {
			return Spec{}, fmt.Errorf("%w: timeline[%d] sets %d operations (want exactly 1)", ErrBadSpec, i, n)
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
