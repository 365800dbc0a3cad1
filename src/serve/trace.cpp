#include "serve/trace.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "tensor/rng.h"

namespace sysnoise::serve {

const char* phase_kind_name(PhaseKind k) {
  switch (k) {
    case PhaseKind::kPoisson: return "poisson";
    case PhaseKind::kBurst: return "burst";
    case PhaseKind::kRamp: return "ramp";
  }
  return "?";
}

PhaseKind phase_kind_from_name(const std::string& name) {
  if (name == "poisson") return PhaseKind::kPoisson;
  if (name == "burst") return PhaseKind::kBurst;
  if (name == "ramp") return PhaseKind::kRamp;
  throw std::invalid_argument("unknown trace phase kind \"" + name + "\"");
}

namespace {

// Trace and spec files are outside input: every number that would
// otherwise reach a worker thread or the generator's arithmetic is checked
// here, and a bad one fails loudly with the field's name.
double non_negative(const util::Json& j, const std::string& what) {
  const double v = j.as_number();
  if (!std::isfinite(v) || v < 0.0)
    throw std::invalid_argument(what + " must be a finite number >= 0, got " +
                                std::to_string(v));
  return v;
}

int non_negative_int(const util::Json& j, const std::string& what) {
  const double v = non_negative(j, what);
  if (v != std::floor(v) || v > std::numeric_limits<int>::max())
    throw std::invalid_argument(what + " must be an int >= 0, got " +
                                std::to_string(v));
  return static_cast<int>(v);
}

}  // namespace

util::Json TracePhase::to_json() const {
  util::Json j = util::Json::object();
  j.set("kind", phase_kind_name(kind));
  j.set("duration_ms", duration_ms);
  j.set("rate_rps", rate_rps);
  if (kind == PhaseKind::kRamp) j.set("end_rate_rps", end_rate_rps);
  if (kind == PhaseKind::kBurst) {
    j.set("burst_every_ms", burst_every_ms);
    j.set("burst_size", burst_size);
  }
  return j;
}

TracePhase TracePhase::from_json(const util::Json& j) {
  TracePhase p;
  p.kind = phase_kind_from_name(j.at("kind").as_string());
  p.duration_ms = non_negative(j.at("duration_ms"), "phase duration_ms");
  p.rate_rps = non_negative(j.at("rate_rps"), "phase rate_rps");
  if (const util::Json* v = j.get("end_rate_rps"))
    p.end_rate_rps = non_negative(*v, "phase end_rate_rps");
  if (const util::Json* v = j.get("burst_every_ms"))
    p.burst_every_ms = non_negative(*v, "phase burst_every_ms");
  if (const util::Json* v = j.get("burst_size"))
    p.burst_size = non_negative_int(*v, "phase burst_size");
  if (p.kind == PhaseKind::kBurst && p.burst_every_ms <= 0.0)
    throw std::invalid_argument("burst phase needs burst_every_ms > 0");
  return p;
}

double TraceSpec::duration_ms() const {
  double total = 0.0;
  for (const TracePhase& p : phases) total += p.duration_ms;
  return total;
}

util::Json TraceSpec::to_json() const {
  util::Json j = util::Json::object();
  // The seed is a u64; doubles carry 53 mantissa bits losslessly, which is
  // plenty for every seed anyone types — reject the rest instead of
  // silently rounding.
  if (seed > (1ull << 53))
    throw std::invalid_argument("trace seed exceeds 2^53, not JSON-safe");
  j.set("seed", static_cast<double>(seed));
  j.set("num_samples", num_samples);
  j.set("random_samples", random_samples);
  util::Json jp = util::Json::array();
  for (const TracePhase& p : phases) jp.push_back(p.to_json());
  j.set("phases", std::move(jp));
  return j;
}

TraceSpec TraceSpec::from_json(const util::Json& j) {
  TraceSpec s;
  const double seed = non_negative(j.at("seed"), "trace seed");
  if (seed != std::floor(seed) || seed > static_cast<double>(1ull << 53))
    throw std::invalid_argument("trace seed must be an integer in [0, 2^53]");
  s.seed = static_cast<std::uint64_t>(seed);
  s.num_samples = non_negative_int(j.at("num_samples"), "trace num_samples");
  if (s.num_samples < 1)
    throw std::invalid_argument("trace num_samples must be >= 1");
  if (const util::Json* v = j.get("random_samples"))
    s.random_samples = v->as_bool();
  for (std::size_t i = 0; i < j.at("phases").size(); ++i)
    s.phases.push_back(TracePhase::from_json(j.at("phases").at(i)));
  return s;
}

namespace {

// Exponential(rate) inter-arrival in ms; rate in requests per second.
double exp_gap_ms(Rng& rng, double rate_rps) {
  // uniform() is in [0, 1); 1-u is in (0, 1], so the log is finite.
  return -std::log(1.0 - rng.uniform()) * 1000.0 / rate_rps;
}

void append_poisson(Rng& rng, double start_ms, double duration_ms,
                    double rate_rps, std::vector<double>* arrivals) {
  if (rate_rps <= 0.0) return;
  double t = start_ms + exp_gap_ms(rng, rate_rps);
  while (t < start_ms + duration_ms) {
    arrivals->push_back(t);
    t += exp_gap_ms(rng, rate_rps);
  }
}

void append_burst(double start_ms, const TracePhase& p,
                  std::vector<double>* arrivals) {
  if (p.burst_every_ms <= 0.0 || p.burst_size <= 0) return;
  for (double t = start_ms; t < start_ms + p.duration_ms;
       t += p.burst_every_ms)
    for (int i = 0; i < p.burst_size; ++i) arrivals->push_back(t);
}

// Non-homogeneous Poisson with rate ramping linearly r0 -> r1 over the
// phase, by inversion: draw a unit-rate process in cumulative-intensity
// space (Exp(1) gaps) and map each point back through the inverse of
// Lambda(t) = r0*t + (r1-r0)*t^2/(2*T)  (rates in per-ms units).
void append_ramp(Rng& rng, double start_ms, const TracePhase& p,
                 std::vector<double>* arrivals) {
  const double r0 = p.rate_rps / 1000.0;      // per ms
  const double r1 = p.end_rate_rps / 1000.0;  // per ms
  const double T = p.duration_ms;
  if (T <= 0.0 || (r0 <= 0.0 && r1 <= 0.0)) return;
  const double slope = (r1 - r0) / T;
  const double total = r0 * T + 0.5 * slope * T * T;  // Lambda(T)
  double lam = -std::log(1.0 - rng.uniform());
  while (lam < total) {
    double t;
    if (std::abs(slope) < 1e-12) {
      t = lam / r0;
    } else {
      // Solve 0.5*slope*t^2 + r0*t - lam = 0 for the root in [0, T].
      const double disc = r0 * r0 + 2.0 * slope * lam;
      t = (-r0 + std::sqrt(std::max(0.0, disc))) / slope;
    }
    arrivals->push_back(start_ms + std::min(t, T));
    lam += -std::log(1.0 - rng.uniform());
  }
}

}  // namespace

std::vector<TraceRequest> generate_trace(const TraceSpec& spec) {
  Rng arrivals_rng(spec.seed);
  // Sample assignment draws from an independent stream so flipping
  // random_samples never perturbs the arrival process itself.
  Rng samples_rng = arrivals_rng.split();

  std::vector<double> arrivals;
  double phase_start = 0.0;
  for (const TracePhase& p : spec.phases) {
    switch (p.kind) {
      case PhaseKind::kPoisson:
        append_poisson(arrivals_rng, phase_start, p.duration_ms, p.rate_rps,
                       &arrivals);
        break;
      case PhaseKind::kBurst:
        append_burst(phase_start, p, &arrivals);
        break;
      case PhaseKind::kRamp:
        append_ramp(arrivals_rng, phase_start, p, &arrivals);
        break;
    }
    phase_start += p.duration_ms;
  }
  // Phases emit in timeline order already; bursts can coincide with Poisson
  // arrivals only across phase boundaries, which back-to-back phases make
  // impossible, so the list is sorted by construction.
  std::vector<TraceRequest> trace;
  trace.reserve(arrivals.size());
  const int n = spec.num_samples > 0 ? spec.num_samples : 1;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    TraceRequest r;
    r.id = static_cast<int>(i);
    r.arrival_ms = arrivals[i];
    r.sample = spec.random_samples ? samples_rng.uniform_int(n)
                                   : static_cast<int>(i % static_cast<std::size_t>(n));
    trace.push_back(r);
  }
  return trace;
}

util::Json trace_to_json(const std::vector<TraceRequest>& trace) {
  util::Json j = util::Json::object();
  j.set("requests", trace.size());
  util::Json arr = util::Json::array();
  for (const TraceRequest& r : trace) {
    util::Json jr = util::Json::object();
    jr.set("id", r.id);
    jr.set("arrival_ms", r.arrival_ms);
    jr.set("sample", r.sample);
    arr.push_back(std::move(jr));
  }
  j.set("trace", std::move(arr));
  return j;
}

std::vector<TraceRequest> trace_from_json(const util::Json& j) {
  std::vector<TraceRequest> trace;
  const util::Json& arr = j.at("trace");
  trace.reserve(arr.size());
  for (std::size_t i = 0; i < arr.size(); ++i) {
    const util::Json& jr = arr.at(i);
    const std::string where = "trace request " + std::to_string(i);
    TraceRequest r;
    r.id = non_negative_int(jr.at("id"), where + " id");
    r.arrival_ms = non_negative(jr.at("arrival_ms"), where + " arrival_ms");
    r.sample = non_negative_int(jr.at("sample"), where + " sample");
    if (!trace.empty() && r.arrival_ms < trace.back().arrival_ms)
      throw std::invalid_argument(where + " arrives before its predecessor");
    trace.push_back(r);
  }
  return trace;
}

TraceSpec poisson_spec(std::uint64_t seed, double duration_ms, double rate_rps,
                       int num_samples) {
  TraceSpec spec;
  spec.seed = seed;
  spec.num_samples = num_samples;
  TracePhase p;
  p.kind = PhaseKind::kPoisson;
  p.duration_ms = duration_ms;
  p.rate_rps = rate_rps;
  spec.phases.push_back(p);
  return spec;
}

}  // namespace sysnoise::serve
