package scenario_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bluegs/internal/harness"
	"bluegs/internal/scenario"
)

// update rewrites the result-digest golden. It is refused while the
// recorded salt equals harness.DefaultCacheSalt: a result change must bump
// the salt first, so that no cache can replay the old results.
//
//	go test ./internal/scenario -run TestResultDigests -update
var update = flag.Bool("update", false, "rewrite result_digests.golden (only under a new cache salt)")

// presetNames snapshots the built-in presets at init, before any test
// registers a scenario of its own.
var presetNames = scenario.Names()

const (
	digestGolden  = "testdata/result_digests.golden"
	digestHorizon = 2 * time.Second
)

// resultDigest runs a registry preset for digestHorizon and returns the
// SHA-256 of its rendered report and admission log. The text renderings
// are deterministic; gob bytes are not (maps encode in random order).
func resultDigest(t *testing.T, name string) string {
	t.Helper()
	spec, ok := scenario.Lookup(name)
	if !ok {
		t.Fatalf("preset %q not registered", name)
	}
	spec.Duration = digestHorizon
	res, err := scenario.Run(spec)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	h := sha256.New()
	h.Write([]byte(res.Report().String()))
	if adm := res.AdmissionReport(); adm != nil {
		h.Write([]byte(adm.String()))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// readDigests parses the golden: a "salt" line, then "name digest" lines.
// Lines starting with '#' are comments.
func readDigests(path string) (salt string, digests map[string]string, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", nil, err
	}
	digests = make(map[string]string)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			return "", nil, fmt.Errorf("%s: bad line %q", path, line)
		}
		if f[0] == "salt" {
			salt = f[1]
			continue
		}
		digests[f[0]] = f[1]
	}
	return salt, digests, nil
}

// TestResultDigests is the salt guard: every registry preset's rendered
// result must match the digest recorded under the current cache salt. A
// digest that moves while the salt stays put means a change altered
// results that existing caches would still replay.
func TestResultDigests(t *testing.T) {
	names := presetNames
	got := make(map[string]string, len(names))
	for _, name := range names {
		got[name] = resultDigest(t, name)
	}
	path := filepath.FromSlash(digestGolden)
	salt, want, err := readDigests(path)
	if *update {
		if err == nil && salt == harness.DefaultCacheSalt {
			t.Fatalf("refusing -update: %s was recorded under the current salt %q; bump harness.DefaultCacheSalt first",
				path, salt)
		}
		var b strings.Builder
		b.WriteString("# SHA-256 of Report() + AdmissionReport() text per registry preset at a 2 s horizon.\n")
		b.WriteString("# Regenerate only under a new harness.DefaultCacheSalt: go test ./internal/scenario -run TestResultDigests -update\n")
		fmt.Fprintf(&b, "salt %s\n", harness.DefaultCacheSalt)
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err != nil {
		t.Fatalf("read digests (create with -update): %v", err)
	}
	if salt != harness.DefaultCacheSalt {
		t.Fatalf("%s was recorded under salt %q, the code is at %q: regenerate with -update", path, salt, harness.DefaultCacheSalt)
	}
	for _, name := range names {
		w, ok := want[name]
		if !ok {
			t.Errorf("preset %s has no recorded digest: bump harness.DefaultCacheSalt and regenerate with -update", name)
			continue
		}
		if got[name] != w {
			t.Errorf("preset %s: result digest %s, recorded %s under unchanged salt %q: a result change needs a salt bump",
				name, got[name], w, salt)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("recorded preset %s is no longer registered: bump harness.DefaultCacheSalt and regenerate with -update", name)
		}
	}
}
