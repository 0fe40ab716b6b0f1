package counters

import "encoding/json"

// observationJSON is the wire form of an Observation: the event names fix
// the column order of the sample matrix, exactly as the CSV encoding's
// header row does.
type observationJSON struct {
	Label   string      `json:"label"`
	Events  []Event     `json:"events"`
	Samples [][]float64 `json:"samples"`
}

// MarshalJSON encodes the observation as {label, events, samples}. The
// default struct encoding would lose the counter set (its fields are
// unexported), so JSON goes through this explicit wire form.
func (o *Observation) MarshalJSON() ([]byte, error) {
	return json.Marshal(observationJSON{
		Label:   o.Label,
		Events:  o.Set.Events(),
		Samples: o.Samples,
	})
}

// UnmarshalJSON decodes the wire form written by MarshalJSON, validating
// what the typed API enforces by construction: at least one event, no
// empty or duplicate events, and every sample row as wide as the event
// list. It accepts and decodes exactly what encoding/json would decode
// into {label, events, samples} (see DecodeObservation).
func (o *Observation) UnmarshalJSON(data []byte) error {
	return decodeOne(data, true, o)
}
