package harness

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"bluegs/internal/scenario"
	"bluegs/internal/stats"
)

// recordFiller sets every exported field it reaches to a value no other
// field holds, so a field the codec drops, or writes into another field's
// place, changes the decoded record.
type recordFiller struct {
	t *testing.T
	n int
}

var durationStatsType = reflect.TypeOf((*stats.DurationStats)(nil))

func (f *recordFiller) next() int {
	f.n++
	return f.n
}

func (f *recordFiller) fill(v reflect.Value, path string) {
	if v.Type() == durationStatsType {
		// The flat stats types keep their state unexported: build one
		// through its own API.
		d := new(stats.DurationStats)
		for i := 0; i < 3; i++ {
			d.Add(time.Duration(f.next()))
		}
		v.Set(reflect.ValueOf(d))
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(f.next()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(f.next()))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(f.next()) + 0.25)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", f.next()))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if sf := v.Type().Field(i); sf.IsExported() {
				f.fill(v.Field(i), path+"."+sf.Name)
			}
		}
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < s.Len(); i++ {
			f.fill(s.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for i := 0; i < 2; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			f.fill(k, path+"[key]")
			f.fill(e, path+"[elem]")
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		f.fill(p.Elem(), path)
		v.Set(p)
	default:
		f.t.Fatalf("%s: no filler for %s", path, v.Type())
	}
}

// TestEntryCodecCoversEveryField: a cacheRecord with a distinct non-zero
// value in every exported field — recursively through every struct,
// slice, map and pointer it reaches — survives an encode and decode
// unchanged. gob picked up a new field by itself; the hand-written codec
// does not, so a field added to FlowResult, PlannedFlow, RouteResult or
// any other type the record reaches fails here until entry.go writes
// and reads it.
func TestEntryCodecCoversEveryField(t *testing.T) {
	var rec cacheRecord
	f := &recordFiller{t: t}
	f.fill(reflect.ValueOf(&rec).Elem(), "cacheRecord")
	payload, err := appendRecord(nil, &rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("record changed in a round trip:\n got %+v\nwant %+v", got, rec)
	}
	t.Logf("%d distinct values in %d payload bytes", f.n, len(payload))
}

// FuzzDecodeResultEntry: any payload either fails to decode or re-encodes
// to the identical entry — the codec has one encoding per result — and
// none panics. The fuzz input is the record payload; the target frames it
// with a valid footer, since a mutated checksum would stop nearly every
// input before the record decoder.
func FuzzDecodeResultEntry(f *testing.F) {
	for _, name := range []string{"paper-fig4", "scatternet-pair", "bridge-pair", "faults-degrade"} {
		spec, ok := scenario.Lookup(name)
		if !ok {
			f.Fatalf("no preset %s", name)
		}
		spec.Duration = 200 * time.Millisecond
		res, err := scenario.Run(spec)
		if err != nil {
			f.Fatal(err)
		}
		entry, err := EncodeResultEntry(CacheKey(DefaultCacheSalt, spec), res)
		if err != nil {
			f.Fatal(err)
		}
		payload := entry[:len(entry)-cacheFooterSize]
		if _, err := decodeRecord(payload); err != nil {
			f.Fatalf("%s: seed does not decode: %v", name, err)
		}
		f.Add(payload)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodeRecord(payload)
		if err != nil {
			return
		}
		entry := appendFooter(bytes.Clone(payload))
		res, err := decodeEntry(rec.Key, entry)
		if err != nil {
			t.Fatalf("record decodes but its entry does not: %v", err)
		}
		again, err := EncodeResultEntry(rec.Key, res)
		if err != nil {
			t.Fatalf("decoded result does not encode: %v", err)
		}
		if !bytes.Equal(again, entry) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", again, entry)
		}
	})
}
