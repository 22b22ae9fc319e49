// Package dataset implements the versioned on-disk record format that
// decouples measurement generation from localization: a gzipped JSONL
// stream whose first line is a self-describing header and whose remaining
// lines are one measurement record each, grouped by measurement day.
//
// The header carries everything the tomography and the report layer need
// beyond the raw records — the measurement period, the vantage and target
// tables, the AS metadata table (names, countries, CAIDA-style classes)
// and the ground-truth censor list — plus the code tables (anomaly kinds,
// elimination reasons, URL categories) that records reference by index,
// so a v1 file can be decoded without consulting this package's constants.
//
// Format stability is pinned by a checked-in golden file
// (testdata/golden_v1.jsonl.gz): any encoder change that breaks v1
// compatibility fails TestGoldenV1 loudly. Decode validates the magic and
// version up front and never panics on corrupt input (FuzzDatasetRoundTrip
// exercises the codec both ways; FuzzDecodeRaw feeds the decoder arbitrary
// bytes).
package dataset
