// A fuzz scenario: one complete CARAT configuration (model::ModelInput plus
// the testbed run parameters) with a canonical text serialization.
//
// The serialization is the repro-file format under docs/findings/ and the
// corpus format under tests/corpus/: line-oriented key/value pairs, doubles
// rendered as C hex-float literals (lossless round trip, no decimal rounding)
// with a human-readable decimal comment appended. Serialize(Parse(text))
// reproduces `text` byte for byte for any file Serialize emitted, and the
// parsed scenario solves bit-identically to the original (only classes with
// population > 0 are emitted; the solver and testbed never read the others).

#ifndef CARAT_FUZZ_SCENARIO_H_
#define CARAT_FUZZ_SCENARIO_H_

#include <cstdint>
#include <string>

#include "model/params.h"
#include "model/solver.h"

namespace carat::fuzz {

struct Scenario {
  /// Identifier carried through findings ("s<seed>-<index>" for generated
  /// scenarios, the file stem for corpus entries). No whitespace.
  std::string name = "scenario";

  /// Testbed run parameters. The windows are deliberately shorter than the
  /// validation suite's: the fuzzer trades per-scenario precision for
  /// scenario count, and the model-vs-testbed oracle widens its tolerance
  /// by the resulting confidence interval.
  std::uint64_t testbed_seed = 1;
  double warmup_ms = 20'000;
  double measure_ms = 200'000;

  model::ModelInput input;
};

/// Lossless double formatting: C hex-float literal (strtod round-trips the
/// exact bits; "nan"/"inf" never appear because inputs are validated finite).
std::string FormatHexDouble(double v);

/// Parses a double from FormatHexDouble output (also accepts plain decimal
/// literals, for hand-written corpus files). Returns false on garbage.
bool ParseHexDouble(const std::string& token, double* out);

/// Canonical text form. Starts with "carat-scenario v1", ends with "end".
std::string Serialize(const Scenario& s);

/// Parses Serialize output (or a hand-edited variant: blank lines and
/// '#'-comments are ignored, keys may appear in any order within their
/// section). On failure returns false and sets *error to "line N: why".
bool Parse(const std::string& text, Scenario* out, std::string* error = nullptr);

/// Bit-exact digest of a ModelSolution (doubles as hex bit patterns), the
/// solver-side counterpart of carat::TestbedResultFingerprint. Equal
/// fingerprints iff byte-identical solutions; the serving and other
/// bit-exact identity oracles compare these.
std::string ModelSolutionFingerprint(const model::ModelSolution& s);

}  // namespace carat::fuzz

#endif  // CARAT_FUZZ_SCENARIO_H_
