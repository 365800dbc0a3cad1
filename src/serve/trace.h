// Seeded synthetic request traces for the serving benchmark.
//
// A TraceSpec describes an open-loop arrival process as a sequence of
// phases — Poisson at a constant rate, deterministic bursts, and linear
// rate ramps — plus how requests map onto the evaluation-set samples they
// ask the server to classify. generate_trace() expands a spec into the
// concrete request list, fully deterministic from the spec (the only
// randomness is the spec's own seed through the repo's xoshiro Rng, so the
// same spec yields byte-identical traces on every run). Specs and traces
// both round-trip through util/json.h, so a trace can be generated once,
// committed or shipped to another machine, and replayed bit-exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.h"

namespace sysnoise::serve {

// One request: an arrival instant on the trace's own timeline plus the
// evaluation-set sample it asks for. `id` is the arrival index.
struct TraceRequest {
  int id = 0;
  double arrival_ms = 0.0;
  int sample = 0;
};

enum class PhaseKind {
  kPoisson = 0,  // exponential inter-arrivals at rate_rps
  kBurst = 1,    // burst_size simultaneous arrivals every burst_every_ms
  kRamp = 2,     // Poisson with the rate ramping rate_rps -> end_rate_rps
};
const char* phase_kind_name(PhaseKind k);
// Throws std::invalid_argument on unknown names (corrupted spec files must
// fail loudly, same contract as the noise-config parsers).
PhaseKind phase_kind_from_name(const std::string& name);

struct TracePhase {
  PhaseKind kind = PhaseKind::kPoisson;
  double duration_ms = 1000.0;
  double rate_rps = 100.0;      // kPoisson rate; kRamp start rate
  double end_rate_rps = 0.0;    // kRamp final rate
  double burst_every_ms = 100.0;  // kBurst tick period
  int burst_size = 10;            // kBurst arrivals per tick

  util::Json to_json() const;
  // Throws std::invalid_argument on a non-finite or negative duration,
  // rate or burst size, and on a burst phase with burst_every_ms <= 0.
  static TracePhase from_json(const util::Json& j);
};

struct TraceSpec {
  std::uint64_t seed = 1;
  // Samples are assigned round-robin (request id modulo num_samples) by
  // default, so a trace whose length is a multiple of num_samples covers
  // the evaluation set with exactly equal counts — the layout the
  // served-vs-offline accuracy identity depends on. random_samples draws
  // them uniformly from the seed instead (more adversarial batching mix).
  int num_samples = 1;
  bool random_samples = false;
  std::vector<TracePhase> phases;

  // Sum of phase durations.
  double duration_ms() const;

  util::Json to_json() const;
  // Throws std::invalid_argument on a bad phase, num_samples < 1, or a
  // seed that is not an integer in [0, 2^53].
  static TraceSpec from_json(const util::Json& j);
};

// Expand the spec into its arrival list: phases back to back, arrivals
// non-decreasing in time, ids dense in arrival order.
std::vector<TraceRequest> generate_trace(const TraceSpec& spec);

// Concrete-trace JSON round trip (for replaying a trace that was generated
// elsewhere or hand-edited; floats keep round-trip precision).
util::Json trace_to_json(const std::vector<TraceRequest>& trace);
// Throws std::invalid_argument on a negative id or sample, a non-finite or
// negative arrival_ms, or an arrival earlier than the one before it.
std::vector<TraceRequest> trace_from_json(const util::Json& j);

// Convenience: a single-phase Poisson spec, the common case.
TraceSpec poisson_spec(std::uint64_t seed, double duration_ms, double rate_rps,
                       int num_samples);

}  // namespace sysnoise::serve
