package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/workload"
)

// TestRunChainEmitsResult drives the chain smoke that CI and `make load`
// run and checks the JSON it prints: the current schema, the requested
// depth, and every delivery checksum-clean.
func TestRunChainEmitsResult(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-workflows", "2", "-requests", "4", "-mode", "chain", "-hops", "4", "-compact"}, &out); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(out.Bytes(), &m); err != nil {
		t.Fatalf("output is not one JSON document: %v\n%s", err, out.Bytes())
	}
	if m["schema_version"] != float64(workload.SchemaVersion) {
		t.Fatalf("schema_version = %v, want %d", m["schema_version"], workload.SchemaVersion)
	}
	if m["mode"] != workload.ModeChain || m["hops"] != float64(4) {
		t.Fatalf("mode/hops = %v/%v, want chain/4", m["mode"], m["hops"])
	}
	if m["errors"] != float64(0) {
		t.Fatalf("errors = %v, want 0", m["errors"])
	}
	if m["ops"] != float64(4) {
		t.Fatalf("ops = %v, want 4", m["ops"])
	}
}

// TestRunRejectsUnknownFlag: a flag the harness does not define (here the
// removed -phase-locked) fails the run instead of being ignored, so a stale
// script cannot silently measure a different regime than it names.
func TestRunRejectsUnknownFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-mode", "chain", "-phase-locked"}, &out); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if out.Len() != 0 {
		t.Fatalf("rejected run printed a result: %s", out.Bytes())
	}
}
