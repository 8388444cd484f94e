// The `audit` workload: the one-shot reliability estimate of newly
// arrived datasets, i.e. dbim_cli's path run in-process on each:
//   ReadDatabaseCsv -> MeasureContext -> violations() -> conflict_graph()
//   -> MeasureSession::Evaluate(context)
// over dirty samples of Tax, Voter and Flight, which differ in conflict
// density. No wire, no WAL, no incremental maintenance: the cost is
// detection.
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "common/parallel.h"
#include "datagen/datasets.h"
#include "datagen/io.h"
#include "datagen/noise.h"
#include "service/spec.h"
#include "trace.h"

namespace perfbench {

namespace {

using namespace dbim;

constexpr double kNoiseAlpha = 0.002;
constexpr int kDetectorThreads = 4;
constexpr double kRepairDeadlineSeconds = 30.0;  // dbim_cli's
// setup_s: the median over kSetupSamples samples, each the mean of
// kSetupsPerSample setups. One setup takes only tens of microseconds, and
// on a shared machine the speed of such short work swings by half within a
// second, so each sample spans about half a second.
constexpr int kSetupSamples = 9;
constexpr int kSetupsPerSample = 7000;
// Arrivals generated per run second: about three times the measured audit
// rate, so a faster build still has work until the deadline.
constexpr double kArrivalsPerSecond = 8.0;
constexpr size_t kGeneratorThreads = 4;

/// One kind of arriving dataset: its generator, size and constraint spec.
struct Kind {
  DatasetId id;
  size_t num_facts;
  std::string spec_path;  // relation + constraints, dbim_cli's --spec
  ServiceSpec spec;       // as loaded from spec_path
  std::unique_ptr<MeasureSession> session;
};

/// One arriving dataset: a fresh dirty sample of its kind, as CSV.
struct Arrival {
  size_t kind = 0;
  std::string csv_path;
};

SessionOptions CliOptions(int threads) {
  return FlagOptions({"--threads=" + std::to_string(threads)})
      .WithRepairDeadline(kRepairDeadlineSeconds);
}

/// One audit as dbim_cli runs it. Spans go to the calling thread's trace.
bool AuditOnce(const MeasureSession& session, const ServiceSpec& spec,
               const std::string& csv_path, WireReport* report,
               std::string* error) {
  ThreadTrace* trace = CurrentTrace();
  ScopedSpan request(trace, kRequestSpan);
  std::optional<Database> db;
  {
    ScopedSpan span(trace, "io.csv_read");
    db = ReadDatabaseCsv(spec.schema, spec.relation, csv_path, error);
  }
  if (!db) return false;
  MeasureContext context(session.detector(), *db);
  {
    ScopedSpan span(trace, "violations.detect");
    context.violations();
  }
  {
    ScopedSpan span(trace, "measures.conflict_graph");
    context.conflict_graph();
  }
  std::vector<MeasureResult> results;
  {
    ScopedSpan span(trace, "measures.solve");
    const uint64_t start = NowNs();
    results = session.Evaluate(context);
    AddSolveSpans(results, start);
  }
  BatchReport batch;
  batch.num_minimal_subsets = context.violations().num_minimal_subsets();
  batch.truncated = context.violations().truncated();
  batch.measures = std::move(results);
  *report = ToWireReport(db->size(), batch);
  return true;
}

/// Writes the dataset's relation and constraints in the spec format
/// dbim_cli reads.
bool WriteSpec(const Dataset& dataset, const std::string& path) {
  const RelationSignature& relation =
      dataset.schema->relation(dataset.relation);
  std::string text = "relation " + relation.name() + "(";
  for (AttrIndex a = 0; a < relation.arity(); ++a) {
    text += (a == 0 ? "" : ", ") + relation.attribute_name(a);
  }
  text += ")\n";
  for (const DenialConstraint& dc : dataset.constraints) {
    // ToString renders t[A]; the spec grammar spells it t.A.
    for (const char c : dc.ToString(*dataset.schema)) {
      if (c == '[') {
        text += '.';
      } else if (c != ']') {
        text += c;
      }
    }
    text += "\n";
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool written = std::fwrite(text.data(), 1, text.size(), f) ==
                       text.size();
  return std::fclose(f) == 0 && written;
}

/// The loaded spec must state the generator's constraints exactly.
bool SameConstraints(const ServiceSpec& spec, const Dataset& dataset,
                     std::string* error) {
  bool same = spec.constraints.size() == dataset.constraints.size();
  for (size_t c = 0; same && c < spec.constraints.size(); ++c) {
    same = spec.constraints[c].ToString(*spec.schema) ==
           dataset.constraints[c].ToString(*dataset.schema);
  }
  if (!same) *error = "constraints do not round-trip through the spec file";
  return same;
}

struct PassResult {
  size_t audits = 0;
  double elapsed_s = 0.0;
  std::vector<double> latency_ms;
  std::vector<WireReport> reports;
  std::vector<std::string> errors;  // per audit; empty when it succeeded
};

/// Audits the arrivals in order until `deadline_ns` passes or `limit` are
/// done.
PassResult RunPass(std::vector<Kind>& kinds,
                   const std::vector<Arrival>& arrivals, uint64_t deadline_ns,
                   size_t limit, ThreadTrace* trace) {
  CurrentTrace() = trace;
  PassResult pass;
  const uint64_t start = NowNs();
  if (trace != nullptr) trace->StartWall();
  while (pass.audits < limit && NowNs() < deadline_ns) {
    const Arrival& arrival = arrivals[pass.audits];
    const Kind& kind = kinds[arrival.kind];
    if (trace != nullptr) trace->set_request(pass.audits);
    WireReport report;
    std::string error;
    const uint64_t t0 = NowNs();
    AuditOnce(*kind.session, kind.spec, arrival.csv_path, &report, &error);
    pass.latency_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
    pass.reports.push_back(std::move(report));
    pass.errors.push_back(std::move(error));
    ++pass.audits;
  }
  if (trace != nullptr) trace->StopWall();
  pass.elapsed_s = static_cast<double>(NowNs() - start) * 1e-9;
  CurrentTrace() = nullptr;
  return pass;
}

/// Every report of `pass` must equal its arrival's 1-thread reference.
void CheckPass(const std::vector<Kind>& kinds,
               const std::vector<Arrival>& arrivals, const PassResult& pass,
               const std::vector<WireReport>& references, Outcome* outcome) {
  for (size_t i = 0; i < pass.audits; ++i) {
    ++outcome->attempted;
    const std::string name = std::string(DatasetName(
                                 kinds[arrivals[i].kind].id)) +
                             " arrival " + std::to_string(i);
    std::string why;
    if (!pass.errors[i].empty()) {
      ++outcome->failed;
      outcome->Fail(name + ": " + pass.errors[i]);
    } else if (pass.reports[i].truncated) {
      ++outcome->failed;
      outcome->Fail(name + ": truncated report");
    } else if (!SameReport(pass.reports[i], references[i], &why)) {
      ++outcome->failed;
      outcome->Fail(name + " differs from the 1-thread reference: " + why);
    }
  }
}

uint64_t DetectorTotal(const std::vector<Kind>& kinds, bool probes) {
  uint64_t total = 0;
  for (const Kind& kind : kinds) {
    const ViolationDetector& detector = kind.session->detector();
    for (size_t c = 0; c < detector.constraints().size(); ++c) {
      const DetectorConstraintStats stats = detector.constraint_stats(c);
      total += probes ? stats.num_probes : stats.num_fires;
    }
  }
  return total;
}

}  // namespace

Outcome RunAudit(const RunConfig& config) {
  Outcome outcome;
  std::vector<Kind> kinds;
  kinds.push_back({DatasetId::kTax, 10000, {}, {}, nullptr});
  kinds.push_back({DatasetId::kVoter, 8000, {}, {}, nullptr});
  kinds.push_back({DatasetId::kFlight, 5000, {}, {}, nullptr});
  for (Kind& kind : kinds) {
    const Dataset sample = MakeDataset(kind.id, 1, config.seed);
    kind.spec_path =
        config.work_dir + "/" + DatasetName(kind.id) + ".dcs";
    std::string error;
    if (!WriteSpec(sample, kind.spec_path) ||
        !LoadSpecFile(kind.spec_path, &kind.spec, &error) ||
        !SameConstraints(kind.spec, sample, &error)) {
      outcome.Fail(std::string(DatasetName(kind.id)) + " spec: " + error);
      return outcome;
    }
  }

  // Setup: what dbim_cli does before reading the data (load the spec,
  // construct the session), for all three kinds, timed before the arrivals
  // are generated. Each setup replaces the previous session after its clock
  // stops; the last ones serve the run.
  std::vector<double> setup_s;
  for (int sample = 0; sample < kSetupSamples; ++sample) {
    uint64_t elapsed_ns = 0;
    for (int r = 0; r < kSetupsPerSample; ++r) {
      for (Kind& kind : kinds) {
        std::string error;
        const uint64_t t0 = NowNs();
        if (!LoadSpecFile(kind.spec_path, &kind.spec, &error)) {
          outcome.Fail(std::string(DatasetName(kind.id)) + " spec: " + error);
          return outcome;
        }
        auto session = std::make_unique<MeasureSession>(
            kind.spec.schema, kind.spec.constraints,
            CliOptions(kDetectorThreads));
        elapsed_ns += NowNs() - t0;
        kind.session = std::move(session);
      }
    }
    setup_s.push_back(static_cast<double>(elapsed_ns) * 1e-9 /
                      kSetupsPerSample);
  }

  // Arrivals: fresh seeded dirty samples, kinds interleaved, written to CSV
  // before anything is timed. Each run audits dozens of independent
  // samples, so its figures do not hinge on one sample's noise.
  const size_t num_arrivals =
      kinds.size() * static_cast<size_t>(std::ceil(
                         config.seconds * kArrivalsPerSecond / kinds.size()));
  std::vector<Arrival> arrivals(num_arrivals);
  std::vector<std::string> generation_errors(num_arrivals);
  auto any_order = [](size_t) { return true; };
  OrderedParallelFor(kGeneratorThreads, num_arrivals, [&](size_t i) {
    Arrival& arrival = arrivals[i];
    arrival.kind = i % kinds.size();
    const Kind& kind = kinds[arrival.kind];
    Dataset dataset =
        MakeDataset(kind.id, kind.num_facts, SubSeed(config.seed, i));
    const RNoiseGenerator noise(dataset.data, dataset.constraints, 0.0);
    Rng rng(SubSeed(config.seed, num_arrivals + i));
    const size_t steps = noise.StepsForAlpha(dataset.data, kNoiseAlpha);
    for (size_t s = 0; s < steps; ++s) noise.Step(dataset.data, rng);
    arrival.csv_path =
        config.work_dir + "/arrival" + std::to_string(i) + ".csv";
    if (!WriteDatabaseCsv(dataset.data, dataset.relation, arrival.csv_path) ||
        !SyncFile(arrival.csv_path)) {
      generation_errors[i] = "cannot write " + arrival.csv_path;
    }
  }, any_order);
  for (const std::string& error : generation_errors) {
    if (!error.empty()) {
      outcome.Fail(error);
      return outcome;
    }
  }

  if (!ResetPeakRss()) {
    outcome.Fail("cannot reset the peak resident set");
    return outcome;
  }
  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(config.seconds * 1e9);
  const PassResult pass =
      RunPass(kinds, arrivals, deadline, arrivals.size(), nullptr);
  const double peak_rss_mb = PeakRssMb();
  if (pass.audits == arrivals.size()) {
    outcome.Fail("all " + std::to_string(arrivals.size()) +
                 " arrivals audited before the deadline; raise "
                 "kArrivalsPerSecond");
  }
  size_t facts = 0;
  for (size_t i = 0; i < pass.audits; ++i) facts += pass.reports[i].num_facts;
  std::fprintf(stderr, "perfbench: audit %zu datasets, %.0f facts/s\n",
               pass.audits, static_cast<double>(facts) / pass.elapsed_s);
  outcome.metrics["setup_s"] = Percentile(setup_s, 50);
  outcome.metrics["ops_per_s"] =
      static_cast<double>(pass.audits) / pass.elapsed_s;
  outcome.metrics["evaluate_p50_ms"] = Percentile(pass.latency_ms, 50);
  outcome.metrics["peak_rss_mb"] = peak_rss_mb;

  // References: every audited arrival on a 1-thread detector (never timed).
  std::vector<WireReport> references(pass.audits);
  std::vector<std::string> reference_errors(pass.audits);
  OrderedParallelFor(kGeneratorThreads, pass.audits, [&](size_t i) {
    const Kind& kind = kinds[arrivals[i].kind];
    const MeasureSession reference(kind.spec.schema, kind.spec.constraints,
                                   CliOptions(1));
    AuditOnce(reference, kind.spec, arrivals[i].csv_path, &references[i],
              &reference_errors[i]);
  }, any_order);
  for (const std::string& error : reference_errors) {
    if (!error.empty()) outcome.Fail("reference: " + error);
  }
  CheckPass(kinds, arrivals, pass, references, &outcome);
  if (!config.trace) return outcome;

  // Traced pass over the same arrivals.
  const uint64_t probes0 = DetectorTotal(kinds, true);
  const uint64_t fires0 = DetectorTotal(kinds, false);
  ThreadTrace trace(true);
  const PassResult traced =
      RunPass(kinds, arrivals, ~0ull, pass.audits, &trace);
  CheckPass(kinds, arrivals, traced, references, &outcome);
  const uint64_t probes = DetectorTotal(kinds, true) - probes0;
  const uint64_t fires = DetectorTotal(kinds, false) - fires0;
  const std::vector<const ThreadTrace*> traces = {&trace};
  const auto layers = AggregateLayers(traces);
  auto mean_self_us = [&](const std::string& name) {
    auto it = layers.find(name);
    return it == layers.end() ? 0.0 : Mean(it->second.self_us);
  };
  std::map<std::string, double>& m = outcome.metrics;
  m["io.csv_read_s"] = mean_self_us("io.csv_read") * 1e-6;
  m["violations.detect_s"] = mean_self_us("violations.detect") * 1e-6;
  m["violations.detect_fires_per_probe"] =
      probes == 0 ? 0.0 : static_cast<double>(fires) / probes;
  m["measures.conflict_graph_ms"] =
      mean_self_us("measures.conflict_graph") * 1e-3;
  if (!references.empty()) {
    for (const auto& [name, value] : references.front().measures) {
      (void)value;
      m["measures.solve_ms." + name] =
          mean_self_us("measures.solve." + name) * 1e-3;
    }
  }
  m["trace.overhead_frac"] = traced.elapsed_s / pass.elapsed_s - 1.0;
  m["trace.residual_frac"] = ResidualFraction(traces);
  if (!WriteSpans(config.trace_path, traces)) {
    outcome.Fail("cannot write spans to " + config.trace_path);
  }
  return outcome;
}

}  // namespace perfbench
