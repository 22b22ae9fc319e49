// Package blockpage models censor blockpages and their fingerprinting.
//
// Paper correspondence: §2.1, "Block pages". The detection side mirrors
// ICLab's two mechanisms: signature matching against known blockpage
// corpora (OONI's lists in the paper), and the Jones et al. page-length
// comparison against a fetch from a censor-free US vantage point. The
// corpus's signatures are literal per-template authority markers, found
// by one substring scan and a known-set lookup, plus one generic regular
// expression that runs only when a literal prefilter says it can match.
//
// Entry points: Render produces a censor's page for injection;
// NewFingerprintDB builds the detection corpus at a chosen coverage;
// FingerprintDB.Match and LengthDelta are the two detectors.
//
// Invariants: the corpus is deliberately incomplete — some censors' pages
// are unknown to the fingerprint DB and are only caught by the length
// heuristic, and a few slip through entirely, exactly the kind of detector
// imperfection the tomography has to live with. Rendering is
// deterministic per (template, country).
package blockpage
