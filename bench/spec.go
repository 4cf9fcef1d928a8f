package main

// runSeconds is the measured time of one driver run of one workload:
// defaultRounds rounds of defaultRoundSeconds.
const runSeconds = int(defaultRounds * defaultRoundSeconds)

// benchmarkSpec is the layout of BENCHMARK.json at the repository root.
type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// currentSpec renders the tables this package emits as BENCHMARK.json, so
// the file can be regenerated (bench -spec) and a test can hold the two
// equal.
func currentSpec() benchmarkSpec {
	spec := benchmarkSpec{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		if !w.unlisted {
			spec.Workloads = append(spec.Workloads, specWorkload{Name: w.name, Why: w.why})
		}
	}
	for _, m := range gatedEndToEnd() {
		bound := m.listed
		spec.EndToEnd = append(spec.EndToEnd, specMetric{Name: m.name, Unit: m.unit, Better: m.better, Bound: &bound})
	}
	for _, m := range perLayer() {
		spec.PerLayer = append(spec.PerLayer, specMetric{Name: m.name, Unit: m.unit, Better: m.better})
	}
	return spec
}
