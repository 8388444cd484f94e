// The two service workloads: `clean-loop` (the paper's cleaning loop over
// an in-memory dbimd) and `ingest` (a durable dbimd taking a write
// stream). Both run a ServiceServer in-process on loopback, drive it with
// ServiceClient connections in a closed loop, then replay the same
// request lines in-process through the functions the server's stages call
// (ParseRequest, MeasureSession::Apply / Violations / Evaluate(context),
// FormatResponse) to check the wire's answers and, in a traced run, to
// time each layer.
#include <sys/types.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "datagen/datasets.h"
#include "datagen/noise.h"
#include "service/protocol.h"
#include "service/server.h"
#include "storage/backend.h"
#include "storage/durable_store.h"
#include "trace.h"

namespace perfbench {

namespace {

using namespace dbim;

enum class OpKind : uint8_t { kApply, kEvaluate };

struct WireOp {
  std::string line;  // request line with its tag, no newline
  OpKind kind = OpKind::kApply;
  int64_t expect_id = -1;  // INSERT: the fact id the server must assign
};

/// An op stream on disk, one op a line: "<A|E> <expected id or -1>
/// <request line>". The generator writes it before anything is timed; the
/// client reads it back one op at a time as it sends, so during the
/// measured run the client holds only the ops in flight.
class OpWriter {
 public:
  explicit OpWriter(const std::string& path)
      : path_(path), file_(std::fopen(path.c_str(), "w")) {}
  ~OpWriter() { Close(); }
  OpWriter(const OpWriter&) = delete;
  OpWriter& operator=(const OpWriter&) = delete;

  size_t count() const { return count_; }

  void Add(const WireOp& op) {
    if (file_ == nullptr) return;
    ok_ = std::fprintf(file_, "%c %lld %s\n",
                       op.kind == OpKind::kEvaluate ? 'E' : 'A',
                       static_cast<long long>(op.expect_id),
                       op.line.c_str()) > 0 &&
          ok_;
    ++count_;
  }

  /// Closes the stream and flushes it to disk. False when any write failed.
  bool Close() {
    if (file_ == nullptr) return false;
    ok_ = std::fclose(file_) == 0 && ok_;
    file_ = nullptr;
    return SyncFile(path_) && ok_;
  }

 private:
  std::string path_;
  std::FILE* file_;
  size_t count_ = 0;
  bool ok_ = true;
};

class OpReader {
 public:
  explicit OpReader(const std::string& path)
      : file_(std::fopen(path.c_str(), "r")) {}
  ~OpReader() {
    std::free(buffer_);
    if (file_ != nullptr) std::fclose(file_);
  }
  OpReader(const OpReader&) = delete;
  OpReader& operator=(const OpReader&) = delete;

  /// The next op; false at the end of the stream (or if it cannot be read).
  bool Next(WireOp* op) {
    if (file_ == nullptr) return false;
    ssize_t size = getline(&buffer_, &capacity_, file_);
    if (size < 5) return false;
    if (buffer_[size - 1] == '\n') buffer_[--size] = '\0';
    op->kind = buffer_[0] == 'E' ? OpKind::kEvaluate : OpKind::kApply;
    char* line = nullptr;
    op->expect_id = std::strtoll(buffer_ + 2, &line, 10);
    if (*line != ' ') return false;
    ++line;
    op->line.assign(line, buffer_ + size - line);
    return true;
  }

 private:
  std::FILE* file_;
  char* buffer_ = nullptr;
  size_t capacity_ = 0;
};

/// The first `limit` ops of a stream file.
std::vector<WireOp> ReadOps(const std::string& path, size_t limit) {
  std::vector<WireOp> ops;
  OpReader reader(path);
  WireOp op;
  while (ops.size() < limit && reader.Next(&op)) ops.push_back(op);
  return ops;
}

/// What one client connection sends: to the sessions it owns, which no
/// other connection touches.
struct TenantStream {
  std::vector<std::string> sessions;
  std::string preload_path;  // bulk INSERT of the initial data (setup)
  std::string ops_path;      // the measured stream
  size_t num_ops = 0;
};

struct ServiceWorkload {
  std::shared_ptr<const Schema> schema;
  RelationId relation = 0;
  std::vector<DenialConstraint> constraints;
  std::vector<TenantStream> tenants;
  size_t depth = 1;  // requests in flight per connection; 1 = lock-step
  bool durable = false;
  storage::DurabilityOptions durability;
  int setup_repeats = 3;
  std::string error;  // set when a stream file could not be written
};

/// Stream file paths of tenant `t`, and a writer for each.
struct StreamFiles {
  TenantStream stream;
  OpWriter preload;
  OpWriter ops;

  StreamFiles(const RunConfig& config, size_t t)
      : stream(Paths(config, t)),
        preload(stream.preload_path),
        ops(stream.ops_path) {}

  /// Closes both files into `w`'s tenant list.
  void Finish(ServiceWorkload* w) {
    if (!preload.Close() || !ops.Close()) {
      w->error = "cannot write " + stream.ops_path;
    }
    stream.num_ops = ops.count();
    w->tenants.push_back(std::move(stream));
  }

 private:
  static TenantStream Paths(const RunConfig& config, size_t t) {
    TenantStream stream;
    const std::string base = config.work_dir + "/tenant" + std::to_string(t);
    stream.preload_path = base + ".preload";
    stream.ops_path = base + ".ops";
    return stream;
  }
};

std::string OpTag(const char* prefix, size_t index) {
  return prefix + std::to_string(index);
}

std::string Line(Request request, std::string tag) {
  request.tag = std::move(tag);
  return FormatRequest(request);
}

std::vector<Value> RowValues(const Database& db, FactId id) {
  std::vector<Value> values;
  const size_t arity = db.schema().relation(db.Locate(id).relation).arity();
  for (AttrIndex a = 0; a < arity; ++a) {
    values.push_back(db.pool().value(db.value_id(id, a)));
  }
  return values;
}

/// One RNoise step on a single fact: the generator's own cell pick and
/// value draw, applied to `cells`. Returns false when the step changed
/// nothing.
bool NoiseCell(const RNoiseGenerator& noise,
               const std::shared_ptr<const Schema>& schema,
               RelationId relation, std::vector<Value>& cells, Rng& rng,
               AttrIndex* attr, Value* value) {
  Database one(schema);
  one.Insert(Fact(relation, cells));
  bool changed = false;
  noise.Step(one, rng, [&](FactId, AttrIndex a, Value v) {
    *attr = a;
    *value = v;
    cells[a] = std::move(v);
    changed = true;
  });
  return changed;
}

/// Server-side id assignment (minimal free id, else the high-water mark),
/// so the generator knows the id every INSERT must be answered with.
struct IdSimulation {
  std::set<FactId> free_ids;
  FactId next_id = 0;

  FactId Insert() {
    if (free_ids.empty()) return next_id++;
    const FactId id = *free_ids.begin();
    free_ids.erase(free_ids.begin());
    return id;
  }
  void Delete(FactId id) { free_ids.insert(id); }
};

// ------------------------------------------------------------ generation --

// clean-loop: three connections, each owning four sessions on dirty
// 1.5k-fact Voter samples and cleaning them in turn. A round is one noise
// UPDATE, one UPDATE restoring the session's oldest noised cell, and an
// EVALUATE, so each session's error rate (and the cost of EVALUATE) stays
// constant. Four samples per connection: one sample's cost hinges on which
// cells its noise hits, and twelve samples average that out.
constexpr size_t kCleanLoopTenants = 3;
constexpr size_t kCleanLoopSessions = 4;  // per connection
constexpr size_t kCleanLoopFacts = 1500;
constexpr double kCleanLoopAlpha = 0.01;
// Stream length cap, per tenant: over three times the measured rate.
constexpr size_t kCleanLoopRoundsPerSecond = 100;

ServiceWorkload MakeCleanLoop(const RunConfig& config) {
  ServiceWorkload w;
  Dataset full = MakeDataset(
      DatasetId::kVoter,
      kCleanLoopTenants * kCleanLoopSessions * kCleanLoopFacts,
      SubSeed(config.seed, 0));
  w.schema = full.schema;
  w.relation = full.relation;
  w.constraints = full.constraints;
  w.depth = 1;
  const RNoiseGenerator noise(full.data, full.constraints, 0.0);
  const size_t max_rounds = static_cast<size_t>(
      config.seconds * static_cast<double>(kCleanLoopRoundsPerSecond));
  struct Sample {
    std::string session;
    Database clean;
    Database dirty;
    std::deque<std::pair<FactId, AttrIndex>> noised;
  };
  for (size_t t = 0; t < kCleanLoopTenants; ++t) {
    StreamFiles files(config, t);
    TenantStream& stream = files.stream;
    Rng rng(SubSeed(config.seed, 10 + t));
    std::vector<Sample> samples;
    for (size_t k = 0; k < kCleanLoopSessions; ++k) {
      const FactId first = static_cast<FactId>(
          (t * kCleanLoopSessions + k) * kCleanLoopFacts);
      Sample sample{"clean" + std::to_string(t) + "." + std::to_string(k),
                    Database(full.schema), Database(full.schema), {}};
      for (FactId id = first; id < first + kCleanLoopFacts; ++id) {
        sample.clean.Insert(Fact(full.relation, RowValues(full.data, id)));
      }
      sample.dirty = sample.clean;
      stream.sessions.push_back(sample.session);
      samples.push_back(std::move(sample));
    }
    // Writes a noise update to the sample and returns its request.
    auto noise_step = [&](Sample& sample,
                          std::vector<Request>* requests) {
      noise.Step(sample.dirty, rng, [&](FactId id, AttrIndex attr, Value v) {
        sample.dirty.UpdateValue(id, attr, v);
        sample.noised.emplace_back(id, attr);
        requests->push_back(
            Request::Update(sample.session, id, attr, std::move(v)));
      });
    };
    for (Sample& sample : samples) {
      std::vector<Request> discarded;
      const size_t steps = noise.StepsForAlpha(sample.dirty, kCleanLoopAlpha);
      for (size_t s = 0; s < steps; ++s) noise_step(sample, &discarded);
      for (FactId id = 0; id < kCleanLoopFacts; ++id) {
        files.preload.Add(
            {Line(Request::Insert(sample.session, RowValues(sample.dirty, id)),
                  OpTag("p", files.preload.count())),
             OpKind::kApply, static_cast<int64_t>(id)});
      }
    }
    for (size_t round = 0; round < max_rounds; ++round) {
      Sample& sample = samples[round % samples.size()];
      std::vector<Request> requests;
      noise_step(sample, &requests);
      if (!sample.noised.empty()) {
        const auto [id, attr] = sample.noised.front();
        sample.noised.pop_front();
        const Value clean_value =
            sample.clean.pool().value(sample.clean.value_id(id, attr));
        sample.dirty.UpdateValue(id, attr, clean_value);
        requests.push_back(
            Request::Update(sample.session, id, attr, clean_value));
      }
      for (Request& request : requests) {
        files.ops.Add({Line(std::move(request), OpTag("", files.ops.count())),
                       OpKind::kApply, -1});
      }
      files.ops.Add({Line(Request::Evaluate(sample.session),
                          OpTag("", files.ops.count())),
                     OpKind::kEvaluate, -1});
    }
    files.Finish(&w);
  }
  return w;
}

// ingest: two sessions on a durable daemon, each preloaded with 4k Tax rows
// and then fed new lightly noised Tax rows: 45% INSERT, 40% DELETE of a
// random live fact, 15% UPDATE writing a random cell of a live fact with
// its clean value, with an EVALUATE every 256 operations. The database
// grows slowly (by 5% of the op count) and its error rate stays near
// alpha, so the cost of an operation hardly drifts over the run: with a
// fast-growing database, each run's EVALUATE cost hinged on how far it got.
constexpr size_t kIngestTenants = 2;
constexpr size_t kIngestInitialRows = 4000;
constexpr double kIngestAlpha = 0.003;
constexpr size_t kIngestEvaluateEvery = 256;
// Stream length cap, per tenant: about three times the measured rate.
constexpr size_t kIngestOpsPerSecond = 10000;
constexpr size_t kIngestDepth = 16;
constexpr uint64_t kIngestCheckpointBytes = 2ull << 20;

ServiceWorkload MakeIngest(const RunConfig& config) {
  ServiceWorkload w;
  const size_t max_ops = static_cast<size_t>(
      config.seconds * static_cast<double>(kIngestOpsPerSecond));
  const size_t rows_per_tenant = kIngestInitialRows + max_ops / 2;
  Dataset full = MakeDataset(DatasetId::kTax,
                             kIngestTenants * rows_per_tenant,
                             SubSeed(config.seed, 0));
  w.schema = full.schema;
  w.relation = full.relation;
  w.constraints = full.constraints;
  w.depth = kIngestDepth;
  w.durable = true;
  // Every record is written to the log before its APPLY is answered, but
  // not fsynced: with an fsync per record, the shared disk's latency swings
  // moved throughput by 10% between runs of one seed.
  w.durability.sync = false;
  w.durability.group_commit_max_ops = 64;
  w.durability.checkpoint_wal_bytes = kIngestCheckpointBytes;
  w.setup_repeats = 5;
  const RNoiseGenerator noise(full.data, full.constraints, 0.0);
  const size_t arity = full.schema->relation(full.relation).arity();
  for (size_t t = 0; t < kIngestTenants; ++t) {
    StreamFiles files(config, t);
    const std::string session = "ingest" + std::to_string(t);
    files.stream.sessions.push_back(session);
    Rng rng(SubSeed(config.seed, 10 + t));
    // Light noise on the incoming rows: alpha of their cells, drawn up
    // front and applied as each row is taken.
    std::vector<uint32_t> row_noise(rows_per_tenant, 0);
    const size_t noisy_cells = static_cast<size_t>(
        kIngestAlpha * static_cast<double>(rows_per_tenant * arity));
    for (size_t s = 0; s < noisy_cells; ++s) {
      ++row_noise[rng.UniformIndex(rows_per_tenant)];
    }
    IdSimulation ids;
    std::vector<FactId> live;
    std::vector<FactId> source_of;  // fact id -> row of `full` (clean)
    size_t next_row = 0;
    auto insert = [&](OpWriter* out, const char* prefix) {
      const FactId source =
          static_cast<FactId>(t * rows_per_tenant + next_row);
      std::vector<Value> cells = RowValues(full.data, source);
      const FactId id = ids.Insert();
      for (uint32_t k = 0; k < row_noise[next_row]; ++k) {
        AttrIndex attr = 0;
        Value value;
        NoiseCell(noise, full.schema, full.relation, cells, rng, &attr,
                  &value);
      }
      ++next_row;
      if (source_of.size() <= id) source_of.resize(id + 1);
      source_of[id] = source;
      live.push_back(id);
      out->Add({Line(Request::Insert(session, std::move(cells)),
                     OpTag(prefix, out->count())),
                OpKind::kApply, static_cast<int64_t>(id)});
    };
    for (size_t i = 0; i < kIngestInitialRows; ++i) {
      insert(&files.preload, "p");
    }
    for (size_t i = 0; i < max_ops; ++i) {
      const std::string tag = OpTag("", i);
      const double draw = rng.UniformDouble();
      if (i % kIngestEvaluateEvery == kIngestEvaluateEvery - 1) {
        files.ops.Add(
            {Line(Request::Evaluate(session), tag), OpKind::kEvaluate, -1});
      } else if ((draw < 0.45 && next_row < rows_per_tenant) ||
                 live.empty()) {
        insert(&files.ops, "");
      } else if (draw < 0.85) {
        const size_t at = rng.UniformIndex(live.size());
        const FactId id = live[at];
        live[at] = live.back();
        live.pop_back();
        ids.Delete(id);
        files.ops.Add(
            {Line(Request::Delete(session, id), tag), OpKind::kApply, -1});
      } else {
        const FactId id = live[rng.UniformIndex(live.size())];
        const AttrIndex attr =
            static_cast<AttrIndex>(rng.UniformIndex(arity));
        const Value clean =
            full.data.pool().value(full.data.value_id(source_of[id], attr));
        files.ops.Add({Line(Request::Update(session, id, attr, clean), tag),
                       OpKind::kApply, -1});
      }
    }
    files.Finish(&w);
  }
  return w;
}

// ------------------------------------------------------------ wire run --

/// Counts the bytes the durable store hands to the storage layer: what
/// `write_amp` divides by the payload sent.
class CountingBackend : public storage::StorageBackend {
 public:
  explicit CountingBackend(std::unique_ptr<storage::StorageBackend> inner)
      : inner_(std::move(inner)) {}

  uint64_t bytes_written() const {
    return bytes_.load(std::memory_order_relaxed);
  }

  bool Open(std::string* error) override { return inner_->Open(error); }
  bool WriteSegment(const std::string& name, const std::string& bytes,
                    std::string* error) override {
    bytes_.fetch_add(bytes.size(), std::memory_order_relaxed);
    return inner_->WriteSegment(name, bytes, error);
  }
  std::unique_ptr<storage::SegmentView> ReadSegment(
      const std::string& name, std::string* error) override {
    return inner_->ReadSegment(name, error);
  }
  bool RemoveSegment(const std::string& name) override {
    return inner_->RemoveSegment(name);
  }
  std::vector<std::string> ListSegments() override {
    return inner_->ListSegments();
  }
  bool ReadManifest(std::string* bytes, bool* exists,
                    std::string* error) override {
    return inner_->ReadManifest(bytes, exists, error);
  }
  bool CommitManifest(const std::string& bytes, std::string* error) override {
    bytes_.fetch_add(bytes.size(), std::memory_order_relaxed);
    return inner_->CommitManifest(bytes, error);
  }
  bool WalOpen(const std::string& name, uint64_t truncate_to,
               std::string* error) override {
    return inner_->WalOpen(name, truncate_to, error);
  }
  bool WalAppend(const void* data, size_t size, std::string* error) override {
    bytes_.fetch_add(size, std::memory_order_relaxed);
    return inner_->WalAppend(data, size, error);
  }
  bool WalSync(std::string* error) override { return inner_->WalSync(error); }
  uint64_t WalSize() const override { return inner_->WalSize(); }

 private:
  std::unique_ptr<storage::StorageBackend> inner_;
  std::atomic<uint64_t> bytes_{0};
};

/// A started daemon with one connected, registered, preloaded client per
/// tenant. Members are destroyed clients first, then server, then store.
struct LiveService {
  CountingBackend* backend = nullptr;  // owned by the store
  std::unique_ptr<storage::DurableSessionStore> store;
  std::unique_ptr<ServiceServer> server;
  std::vector<std::unique_ptr<ServiceClient>> clients;

  /// Tears down in dependency order: the server uses the store.
  void Stop() {
    clients.clear();
    server.reset();
    store.reset();
    backend = nullptr;
  }
};

struct TenantRun {
  size_t done = 0;                 // ops [0, done) were sent and answered
  std::vector<double> latency_ms;  // per op of [0, done)
  std::vector<OpKind> kinds;       // per op of [0, done)
  // (op index, reply line) of every EVALUATE, by op index.
  std::vector<std::pair<size_t, std::string>> evaluate_replies;
  uint64_t apply_bytes = 0;  // APPLY request bytes sent
  uint64_t failed = 0;
  bool exhausted = false;  // the stream ended before the deadline
  std::vector<std::string> problems;
  uint64_t end_ns = 0;
};

/// Sends the ops `next_op` yields, keeping up to `depth` requests in flight,
/// until the stream ends and every op is answered or `deadline_ns` passes
/// (nothing new is sent after it; what is in flight is still awaited).
/// Replies are matched by tag: requests to different sessions may be
/// answered out of order.
void Drive(ServiceClient& client, const std::function<bool(WireOp*)>& next_op,
           const char* tag_prefix, size_t depth, uint64_t deadline_ns,
           TenantRun* run) {
  struct InFlight {
    uint64_t issued_ns;
    OpKind kind;
    int64_t expect_id;
    size_t bytes;
  };
  const size_t prefix_size = std::strlen(tag_prefix);
  std::unordered_map<size_t, InFlight> in_flight;  // by op index
  size_t next = 0;
  WireOp op;
  std::string error;
  while (true) {
    while (!run->exhausted && in_flight.size() < depth &&
           NowNs() < deadline_ns) {
      if (!next_op(&op)) {
        run->exhausted = true;
        break;
      }
      const uint64_t issued = NowNs();
      if (!client.SendRawLine(op.line, &error)) {
        run->problems.push_back("send: " + error);
        break;
      }
      in_flight.emplace(
          next, InFlight{issued, op.kind, op.expect_id, op.line.size() + 1});
      run->latency_ms.push_back(0.0);
      run->kinds.push_back(op.kind);
      ++next;
    }
    if (in_flight.empty() || !run->problems.empty()) break;
    std::string line;
    if (!client.ReadRawLine(&line, &error)) {
      run->problems.push_back("receive: " + error);
      break;
    }
    const uint64_t answered = NowNs();
    run->end_ns = answered;
    Response response;
    const bool parsed = ParseResponse(line, &response, &error);
    const char* digits = response.tag.c_str() + prefix_size;
    char* end = nullptr;
    const size_t index = std::strtoull(digits, &end, 10);
    auto it = in_flight.end();
    if (parsed && response.tag.compare(0, prefix_size, tag_prefix) == 0 &&
        end != digits && *end == '\0') {
      it = in_flight.find(index);
    }
    if (it == in_flight.end()) {
      ++run->failed;
      run->problems.push_back("reply to no request in flight: " + line);
      break;
    }
    const InFlight sent = it->second;
    in_flight.erase(it);
    run->latency_ms[index] = static_cast<double>(answered - sent.issued_ns) *
                             1e-6;
    if (sent.kind == OpKind::kApply) run->apply_bytes += sent.bytes;
    if (!response.ok()) {  // ERR BUSY (refused) or any other error
      ++run->failed;
      run->problems.push_back("request " + response.tag + " failed: " +
                              response.error_code + " " +
                              response.error_message);
      continue;
    }
    if (sent.kind == OpKind::kEvaluate) {
      WireReport report;
      if (!ServiceClient::ParseReportArgs(response.args, 0, &report,
                                          &error) ||
          report.truncated) {
        ++run->failed;
        run->problems.push_back("EVALUATE " + response.tag +
                                " malformed or truncated: " + line);
      }
      run->evaluate_replies.emplace_back(index, std::move(line));
    } else if (sent.expect_id >= 0 &&
               (response.args.size() != 1 ||
                response.args[0] != std::to_string(sent.expect_id))) {
      ++run->failed;
      run->problems.push_back("INSERT " + response.tag + " expected id " +
                              std::to_string(sent.expect_id) + ": " + line);
    }
  }
  run->done = next;
  std::sort(run->evaluate_replies.begin(), run->evaluate_replies.end());
}

/// Starts the daemon and, one thread per tenant, connects, REGISTERs and
/// bulk-inserts the initial data (`preload`, per tenant). This is what
/// `setup_s` times.
bool StartService(const ServiceWorkload& w,
                  const std::vector<std::vector<WireOp>>& preload,
                  const std::string& data_dir, LiveService* live,
                  std::string* error) {
  ServiceOptions options;
  options.port = 0;
  options.session = FlagOptions({});
  if (w.durable) {
    auto backend = std::make_unique<CountingBackend>(
        storage::CreateFlatFileBackend(data_dir));
    live->backend = backend.get();
    live->store = std::make_unique<storage::DurableSessionStore>(
        w.schema, std::move(backend), w.durability);
    if (!live->store->Open(error)) return false;
    options.store = live->store.get();
  }
  live->server = std::make_unique<ServiceServer>(w.schema, w.relation,
                                                 w.constraints, options);
  if (!live->server->Start(error)) return false;
  const uint16_t port = live->server->port();
  std::vector<TenantRun> runs(w.tenants.size());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < w.tenants.size(); ++t) {
    live->clients.push_back(std::make_unique<ServiceClient>());
  }
  for (size_t t = 0; t < w.tenants.size(); ++t) {
    threads.emplace_back([&, t] {
      ServiceClient& client = *live->clients[t];
      std::string e;
      if (!client.Connect("127.0.0.1", port, &e)) {
        runs[t].problems.push_back(e);
        return;
      }
      for (const std::string& session : w.tenants[t].sessions) {
        if (!client.Register(session, &e)) {
          runs[t].problems.push_back(e);
          return;
        }
      }
      size_t i = 0;
      auto next_op = [&](WireOp* op) {
        if (i == preload[t].size()) return false;
        *op = preload[t][i++];
        return true;
      };
      Drive(client, next_op, "p", 64, ~0ull, &runs[t]);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const TenantRun& run : runs) {
    if (!run.problems.empty()) {
      *error = "setup: " + run.problems.front();
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------- replay run --

/// Forwards the durability callbacks to the store, timing the WAL append
/// and the checkpoint as spans of the applying thread.
class TimedHook : public SessionDurabilityHook {
 public:
  explicit TimedHook(storage::DurableSessionStore* store) : store_(store) {}

  void OnApply(DbHandle handle, const RepairOperation& op) override {
    ScopedSpan span(CurrentTrace(), "storage.wal_append");
    store_->OnApply(handle, op);
  }
  void OnCheckpoint(const std::vector<std::pair<DbHandle, const Database*>>&
                        databases) override {
    ScopedSpan span(CurrentTrace(), "storage.checkpoint");
    store_->OnCheckpoint(databases);
  }
  bool WantsCheckpoint() const override { return store_->WantsCheckpoint(); }

 private:
  storage::DurableSessionStore* store_;
};

RepairOperation ToRepair(const Request& request, RelationId relation) {
  switch (request.apply_kind) {
    case ApplyKind::kInsert:
      return RepairOperation::Insertion(Fact(relation, request.values));
    case ApplyKind::kDelete:
      return RepairOperation::Deletion(request.fact_id);
    case ApplyKind::kUpdate:
      break;
  }
  return RepairOperation::Update(request.fact_id, request.attr,
                                 request.values[0]);
}

struct ReplayTenant {
  std::vector<double> request_ms;   // per replayed op
  std::vector<WireReport> reports;  // per replayed EVALUATE, in order
  // Per session of the tenant: its report after the stream, and an
  // EvaluateOne of the same operations applied to a plain database.
  std::vector<WireReport> final_reports;
  std::vector<WireReport> fresh_reports;
  uint64_t probing_ops = 0;
  uint64_t probes = 0;
  uint64_t fires = 0;
  std::vector<std::string> problems;
};

struct ReplayRun {
  std::vector<ReplayTenant> tenants;
  std::vector<std::unique_ptr<ThreadTrace>> traces;
  uint64_t wall_ns = 0;  // summed over tenant threads
  size_t full_detections = 0;
};

uint64_t SumStats(const std::vector<SessionConstraintStats>& stats,
                  bool probes) {
  uint64_t total = 0;
  for (const SessionConstraintStats& s : stats) {
    total += probes ? s.num_probes : s.num_fires;
  }
  return total;
}

/// What a replay applies, per tenant: the preload and the ops the wire run
/// answered, read back from the stream files.
struct ReplayInput {
  std::vector<std::vector<WireOp>> preload;
  std::vector<std::vector<WireOp>> ops;
};

ReplayInput LoadReplayInput(const ServiceWorkload& w,
                            const std::vector<size_t>& done) {
  ReplayInput input;
  for (size_t t = 0; t < w.tenants.size(); ++t) {
    input.preload.push_back(ReadOps(w.tenants[t].preload_path, SIZE_MAX));
    input.ops.push_back(ReadOps(w.tenants[t].ops_path, done[t]));
  }
  return input;
}

/// Replays every tenant's input through a fresh in-process session, one
/// thread per tenant as on the wire. With `evaluate_each` every EVALUATE
/// is recomputed (else only the final report); with a data dir the session
/// is durable behind a TimedHook.
void Replay(const ServiceWorkload& w, const ReplayInput& input,
            bool evaluate_each, bool traced, const std::string& data_dir,
            ReplayRun* out) {
  SessionOptions options = FlagOptions({});
  std::unique_ptr<storage::DurableSessionStore> store;
  std::unique_ptr<TimedHook> hook;
  if (!data_dir.empty()) {
    store = std::make_unique<storage::DurableSessionStore>(
        w.schema, storage::CreateFlatFileBackend(data_dir), w.durability);
    std::string error;
    if (!store->Open(&error)) {
      out->tenants.assign(w.tenants.size(), ReplayTenant());
      out->tenants[0].problems.push_back("replay store: " + error);
      return;
    }
    hook = std::make_unique<TimedHook>(store.get());
    options.durability = hook.get();
  }
  MeasureSession session(w.schema, w.constraints, options);
  std::vector<std::vector<DbHandle>> handles(w.tenants.size());
  for (size_t t = 0; t < w.tenants.size(); ++t) {
    for (const std::string& name : w.tenants[t].sessions) {
      handles[t].push_back(session.Register(Database(w.schema)));
      if (store != nullptr) {
        store->LogRegister(name, handles[t].back(), nullptr);
      }
    }
  }
  out->tenants.assign(w.tenants.size(), ReplayTenant());
  for (size_t t = 0; t < w.tenants.size(); ++t) {
    out->traces.push_back(std::make_unique<ThreadTrace>(traced));
  }

  auto replay_tenant = [&](size_t t) {
    const TenantStream& stream = w.tenants[t];
    const std::vector<WireOp>& ops = input.ops[t];
    ReplayTenant& result = out->tenants[t];
    ThreadTrace* trace = out->traces[t].get();
    auto index_of = [&](const std::string& name) {
      return static_cast<size_t>(
          std::find(stream.sessions.begin(), stream.sessions.end(), name) -
          stream.sessions.begin());
    };

    auto apply_line = [&](const std::string& line, bool measured) {
      Request request;
      std::string error;
      std::optional<RepairOperation> op;
      {
        // The server's request stage: parse, then decode an APPLY.
        ScopedSpan span(measured ? trace : nullptr, "service.parse");
        if (!ParseRequest(line, &request, &error)) {
          result.problems.push_back("replay parse: " + error);
          return;
        }
        if (request.verb == Verb::kApply) op = ToRepair(request, w.relation);
      }
      const size_t k = index_of(request.session);
      if (k == stream.sessions.size()) {
        result.problems.push_back("replay: unknown session in " + line);
        return;
      }
      const DbHandle handle = handles[t][k];
      if (op) {
        std::optional<FactId> id;
        {
          ScopedSpan span(measured ? trace : nullptr, "session.apply");
          id = session.Apply(handle, *op);
        }
        {
          ScopedSpan span(measured ? trace : nullptr, "service.format");
          const Response reply =
              id ? Response::Ok(request.tag, {std::to_string(*id)})
                 : Response::Ok(request.tag);
          FormatResponse(reply);
        }
        return;
      }
      if (!evaluate_each) return;
      ViolationSet violations;
      {
        ScopedSpan span(trace, "session.snapshot");
        violations = session.Violations(handle);
      }
      // Self time of session.evaluate: the handle lock and the context's
      // construction and teardown.
      std::optional<ScopedSpan> evaluate_span;
      evaluate_span.emplace(trace, "session.evaluate");
      const WireReport report = session.WithDatabase(
          handle, [&](const Database& db) {
            MeasureContext context(session.detector(), db,
                                   std::move(violations));
            {
              ScopedSpan span(trace, "measures.conflict_graph");
              context.conflict_graph();
            }
            BatchReport batch;
            {
              ScopedSpan span(trace, "measures.solve");
              const uint64_t start = NowNs();
              batch.measures = session.Evaluate(context);
              AddSolveSpans(batch.measures, start);
            }
            batch.num_minimal_subsets =
                context.violations().num_minimal_subsets();
            batch.truncated = context.violations().truncated();
            return ToWireReport(db.size(), batch);
          });
      evaluate_span.reset();
      {
        ScopedSpan span(trace, "service.format");
        std::vector<std::string> args = {
            std::to_string(report.num_facts),
            std::to_string(report.num_minimal_subsets),
            report.truncated ? "1" : "0"};
        char value[64];
        for (const auto& [name, v] : report.measures) {
          args.push_back(EncodeToken(name));
          std::snprintf(value, sizeof(value), "%.17g", v);
          args.push_back(value);
        }
        FormatResponse(Response::Ok(request.tag, std::move(args)));
      }
      result.reports.push_back(report);
    };

    // Probing ops, probes and fires summed over the tenant's sessions.
    auto probe_counts = [&]() {
      std::array<uint64_t, 3> counts = {0, 0, 0};
      for (const DbHandle handle : handles[t]) {
        const std::vector<SessionConstraintStats> stats =
            session.ConstraintStats(handle);
        counts[0] += session.DispatchStats(handle).num_ops;
        counts[1] += SumStats(stats, true);
        counts[2] += SumStats(stats, false);
      }
      return counts;
    };
    for (const WireOp& op : input.preload[t]) apply_line(op.line, false);
    const std::array<uint64_t, 3> before = probe_counts();
    CurrentTrace() = trace;
    trace->StartWall();
    for (size_t i = 0; i < ops.size(); ++i) {
      trace->set_request(i);
      const uint64_t start = NowNs();
      {
        ScopedSpan span(trace, kRequestSpan);
        apply_line(ops[i].line, true);
      }
      result.request_ms.push_back(static_cast<double>(NowNs() - start) *
                                  1e-6);
    }
    trace->StopWall();
    CurrentTrace() = nullptr;
    const std::array<uint64_t, 3> after = probe_counts();
    result.probing_ops = after[0] - before[0];
    result.probes = after[1] - before[1];
    result.fires = after[2] - before[2];
    // The same operations on plain databases, evaluated from scratch.
    std::vector<Database> references(stream.sessions.size(),
                                     Database(w.schema));
    auto apply_to_reference = [&](const WireOp& wire_op) {
      Request request;
      std::string error;
      if (wire_op.kind == OpKind::kApply &&
          ParseRequest(wire_op.line, &request, &error) &&
          index_of(request.session) < references.size()) {
        ToRepair(request, w.relation)
            .ApplyInPlace(references[index_of(request.session)]);
      }
    };
    for (const WireOp& wire_op : input.preload[t]) {
      apply_to_reference(wire_op);
    }
    for (const WireOp& wire_op : ops) apply_to_reference(wire_op);
    for (size_t k = 0; k < stream.sessions.size(); ++k) {
      const DbHandle handle = handles[t][k];
      result.final_reports.push_back(
          ToWireReport(session.NumFacts(handle), session.Evaluate(handle)));
      result.fresh_reports.push_back(ToWireReport(
          references[k].size(), session.EvaluateOne(references[k])));
    }
  };

  std::vector<std::thread> threads;
  for (size_t t = 0; t < w.tenants.size(); ++t) {
    threads.emplace_back(replay_tenant, t);
  }
  for (std::thread& thread : threads) thread.join();
  for (const auto& trace : out->traces) out->wall_ns += trace->wall_ns();
  out->full_detections = session.num_full_detections();
}

/// Checks a replay against the wire run: the final wire report must equal
/// the replayed session's and a fresh EvaluateOne of the same facts; with
/// every EVALUATE replayed, each wire reply must equal its replay.
void CheckReplay(const ServiceWorkload& w, const std::vector<TenantRun>& wire,
                 const std::vector<std::vector<WireReport>>& wire_final,
                 const ReplayRun& replay, bool evaluate_each,
                 Outcome* outcome) {
  if (replay.full_detections != 0) {
    outcome->Fail("replay session ran " +
                  std::to_string(replay.full_detections) +
                  " full detections");
  }
  for (size_t t = 0; t < replay.tenants.size(); ++t) {
    const ReplayTenant& tenant = replay.tenants[t];
    for (const std::string& problem : tenant.problems) outcome->Fail(problem);
    std::string why;
    for (size_t k = 0; k < w.tenants[t].sessions.size(); ++k) {
      const std::string& name = w.tenants[t].sessions[k];
      if (k >= tenant.final_reports.size()) {
        ++outcome->failed;
        outcome->Fail(name + ": not replayed");
        continue;
      }
      if (!SameReport(wire_final[t][k], tenant.final_reports[k], &why)) {
        ++outcome->failed;
        outcome->Fail(name + ": wire report != in-process replay: " + why);
      }
      if (!SameReport(wire_final[t][k], tenant.fresh_reports[k], &why)) {
        ++outcome->failed;
        outcome->Fail(name + ": wire report != fresh EvaluateOne: " + why);
      }
    }
    const std::string& name = w.tenants[t].sessions.front();
    if (!evaluate_each) continue;
    size_t k = 0;
    for (const auto& [i, reply] : wire[t].evaluate_replies) {
      Response response;
      WireReport report;
      std::string error;
      if (k >= tenant.reports.size() ||
          !ParseResponse(reply, &response, &error) ||
          !ServiceClient::ParseReportArgs(response.args, 0, &report,
                                          &error) ||
          !SameReport(report, tenant.reports[k], &why)) {
        ++outcome->failed;
        outcome->Fail(name + ": EVALUATE " + std::to_string(i) +
                      " differs from its replay: " + why + error);
      }
      ++k;
    }
    if (k < tenant.reports.size()) {
      ++outcome->failed;
      outcome->Fail(name + ": " + std::to_string(tenant.reports.size() - k) +
                    " replayed EVALUATEs have no wire reply");
    }
  }
}

Outcome RunService(const RunConfig& config, const ServiceWorkload& w) {
  Outcome outcome;
  if (!w.error.empty()) {
    outcome.Fail(w.error);
    return outcome;
  }

  // Setup, several times; the last daemon serves the measured run. The
  // preload is read from its files before and freed after.
  std::vector<double> setup_s;
  LiveService live;
  {
    std::vector<std::vector<WireOp>> preload;
    for (const TenantStream& stream : w.tenants) {
      preload.push_back(ReadOps(stream.preload_path, SIZE_MAX));
    }
    for (int r = 0; r < w.setup_repeats; ++r) {
      live.Stop();
      const std::string dir = config.work_dir + "/data" + std::to_string(r);
      std::string error;
      const uint64_t start = NowNs();
      if (!StartService(w, preload, dir, &live, &error)) {
        outcome.Fail(error);
        live.Stop();
        return outcome;
      }
      setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    }
  }

  // The measured run: one closed-loop client thread per tenant, each
  // reading its ops from its stream file as it sends them.
  storage::DurabilityStats durability0;
  if (live.store != nullptr) durability0 = live.store->Stats();
  const uint64_t bytes0 = live.backend ? live.backend->bytes_written() : 0;
  const size_t rejected0 = live.server->num_rejected();
  std::vector<TenantRun> runs(w.tenants.size());
  std::vector<std::unique_ptr<OpReader>> readers;
  for (const TenantStream& stream : w.tenants) {
    readers.push_back(std::make_unique<OpReader>(stream.ops_path));
  }
  if (!ResetPeakRss()) {
    outcome.Fail("cannot reset the peak resident set");
    live.Stop();
    return outcome;
  }
  const uint64_t start = NowNs();
  const uint64_t deadline =
      start + static_cast<uint64_t>(config.seconds * 1e9);
  {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < w.tenants.size(); ++t) {
      threads.emplace_back([&, t] {
        auto next_op = [&](WireOp* op) { return readers[t]->Next(op); };
        Drive(*live.clients[t], next_op, "", w.depth, deadline, &runs[t]);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  const double peak_rss_mb = PeakRssMb();
  readers.clear();

  uint64_t end = start;
  std::vector<double> apply_ms;
  std::vector<double> evaluate_ms;
  std::vector<size_t> done;
  uint64_t apply_bytes = 0;
  for (size_t t = 0; t < runs.size(); ++t) {
    const TenantRun& run = runs[t];
    for (const std::string& problem : run.problems) outcome.Fail(problem);
    outcome.attempted += run.latency_ms.size();
    outcome.failed += run.failed;
    end = std::max(end, run.end_ns);
    for (size_t i = 0; i < run.latency_ms.size(); ++i) {
      (run.kinds[i] == OpKind::kEvaluate ? evaluate_ms : apply_ms)
          .push_back(run.latency_ms[i]);
    }
    done.push_back(run.done);
    apply_bytes += run.apply_bytes;
    if (run.exhausted) {
      outcome.Fail("tenant " + std::to_string(t) + " sent all " +
                   std::to_string(w.tenants[t].num_ops) +
                   " ops of its stream before the deadline; raise the "
                   "stream cap");
    }
  }
  const double elapsed_s = static_cast<double>(end - start) * 1e-9;
  std::map<std::string, double>& m = outcome.metrics;
  m["setup_s"] = Percentile(setup_s, 50);
  m["ops_per_s"] = static_cast<double>(outcome.attempted) / elapsed_s;
  m["evaluate_p50_ms"] = Percentile(evaluate_ms, 50);
  m["peak_rss_mb"] = peak_rss_mb;
  std::fprintf(stderr,
               "perfbench: %llu ops in %.3f s (%zu evaluates), apply p50 "
               "%.3f ms\n",
               static_cast<unsigned long long>(outcome.attempted), elapsed_s,
               evaluate_ms.size(), Percentile(apply_ms, 50));

  // Layer counters read off the live daemon, then its final reports.
  MeasureSession& served = live.server->session();
  const size_t full_detections = served.num_full_detections();
  if (full_detections != 0) {
    outcome.Fail("daemon ran " + std::to_string(full_detections) +
                 " full detections");
  }
  const double pool_values = static_cast<double>(served.pool().size());
  const double pool_waste = served.PoolWaste();
  const size_t busy = live.server->num_rejected() - rejected0;
  storage::DurabilityStats durability1;
  if (live.store != nullptr) durability1 = live.store->Stats();
  const uint64_t bytes1 = live.backend ? live.backend->bytes_written() : 0;
  std::vector<std::vector<WireReport>> wire_final(w.tenants.size());
  for (size_t t = 0; t < w.tenants.size(); ++t) {
    for (const std::string& session : w.tenants[t].sessions) {
      wire_final[t].emplace_back();
      std::string error;
      if (!live.clients[t]->Evaluate(session, &wire_final[t].back(),
                                     &error)) {
        outcome.Fail("final EVALUATE: " + error);
      }
      std::fprintf(stderr, "perfbench: %s final: %zu facts, %zu subsets\n",
                   session.c_str(), wire_final[t].back().num_facts,
                   wire_final[t].back().num_minimal_subsets);
    }
  }
  live.Stop();

  const ReplayInput input = LoadReplayInput(w, done);
  if (!config.trace) {
    ReplayRun reference;
    Replay(w, input, false, false, "", &reference);
    CheckReplay(w, runs, wire_final, reference, false, &outcome);
    return outcome;
  }

  // Traced run: an untraced replay (the overhead baseline), then the
  // traced one. Both are durable when the daemon was.
  ReplayRun baseline;
  Replay(w, input, true, false, w.durable ? config.work_dir + "/replay0" : "",
         &baseline);
  CheckReplay(w, runs, wire_final, baseline, true, &outcome);
  ReplayRun traced;
  Replay(w, input, true, true, w.durable ? config.work_dir + "/replay1" : "",
         &traced);
  CheckReplay(w, runs, wire_final, traced, true, &outcome);

  std::vector<const ThreadTrace*> traces;
  for (const auto& trace : traced.traces) traces.push_back(trace.get());
  const auto layers = AggregateLayers(traces);
  auto layer = [&](const std::string& name) -> const LayerTotals& {
    static const LayerTotals kEmpty;
    auto it = layers.find(name);
    return it == layers.end() ? kEmpty : it->second;
  };

  // Wire wait: wire latency minus the untraced in-process replay of the
  // same op.
  std::vector<double> queue_apply_ms;
  std::vector<double> queue_evaluate_ms;
  uint64_t probing_ops = 0;
  uint64_t probes = 0;
  uint64_t fires = 0;
  for (size_t t = 0; t < w.tenants.size(); ++t) {
    const ReplayTenant& tenant = traced.tenants[t];
    const std::vector<double>& replay_ms = baseline.tenants[t].request_ms;
    for (size_t i = 0; i < replay_ms.size(); ++i) {
      const double wait = runs[t].latency_ms[i] - replay_ms[i];
      (runs[t].kinds[i] == OpKind::kEvaluate ? queue_evaluate_ms
                                             : queue_apply_ms)
          .push_back(wait);
    }
    probing_ops += tenant.probing_ops;
    probes += tenant.probes;
    fires += tenant.fires;
  }
  auto ratio = [](double num, double den) {
    return den == 0.0 ? 0.0 : num / den;
  };
  m["service.parse_us"] = Mean(layer("service.parse").self_us);
  m["service.format_us"] = Mean(layer("service.format").self_us);
  m["service.wire_queue_ms.apply"] = Percentile(queue_apply_ms, 50);
  m["service.wire_queue_ms.evaluate"] = Percentile(queue_evaluate_ms, 50);
  m["service.busy"] = static_cast<double>(busy);
  m["service.apply_p50_ms"] = Percentile(apply_ms, 50);
  m["service.apply_p99_ms"] = Percentile(apply_ms, 99);
  m["service.evaluate_p99_ms"] = Percentile(evaluate_ms, 99);
  if (w.durable) {
    const LayerTotals& wal = layer("storage.wal_append");
    m["storage.wal_append_us.p50"] = Percentile(wal.total_us, 50);
    m["storage.wal_append_us.p99"] = Percentile(wal.total_us, 99);
    m["storage.checkpoint_s"] =
        Mean(layer("storage.checkpoint").total_us) * 1e-6;
    m["storage.checkpoints"] =
        static_cast<double>(durability1.checkpoints - durability0.checkpoints);
    m["storage.write_amp"] = ratio(static_cast<double>(bytes1 - bytes0),
                                   static_cast<double>(apply_bytes));
  }
  m["session.apply_us.p50"] = Percentile(layer("session.apply").self_us, 50);
  m["session.apply_us.p99"] = Percentile(layer("session.apply").self_us, 99);
  m["incremental.probes_per_op"] =
      ratio(static_cast<double>(probes), static_cast<double>(probing_ops));
  m["incremental.fires_per_probe"] =
      ratio(static_cast<double>(fires), static_cast<double>(probes));
  m["session.snapshot_ms"] = Mean(layer("session.snapshot").self_us) * 1e-3;
  m["session.evaluate_ms"] = Mean(layer("session.evaluate").self_us) * 1e-3;
  m["measures.conflict_graph_ms"] =
      Mean(layer("measures.conflict_graph").self_us) * 1e-3;
  if (!wire_final.empty() && !wire_final.front().empty()) {
    for (const auto& [name, value] : wire_final.front().front().measures) {
      (void)value;
      m["measures.solve_ms." + name] =
          Mean(layer("measures.solve." + name).self_us) * 1e-3;
    }
  }
  m["pool.values"] = pool_values;
  m["pool.waste"] = pool_waste;
  m["session.full_detections"] = static_cast<double>(full_detections);
  m["trace.overhead_frac"] = ratio(static_cast<double>(traced.wall_ns),
                                   static_cast<double>(baseline.wall_ns)) -
                             1.0;
  m["trace.residual_frac"] = ResidualFraction(traces);
  if (!WriteSpans(config.trace_path, traces)) {
    outcome.Fail("cannot write spans to " + config.trace_path);
  }
  return outcome;
}

}  // namespace

Outcome RunCleanLoop(const RunConfig& config) {
  return RunService(config, MakeCleanLoop(config));
}

Outcome RunIngest(const RunConfig& config) {
  return RunService(config, MakeIngest(config));
}

}  // namespace perfbench
