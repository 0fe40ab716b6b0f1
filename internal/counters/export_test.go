package counters

// ObservationJSON exposes the wire struct so the external tests can decode
// through encoding/json as the reference for the one-pass decoder.
type ObservationJSON = observationJSON
