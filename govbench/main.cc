// Governed-query benchmark: fixed-work, closed-loop workloads through the
// gateway and Connect, plus a traced per-layer run. See README.md.
//
//   govbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   govbench --self-test
//
// The last line of standard output is one JSON object with `correct`,
// `attempted`, `failed` and `metrics`.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "workload.h"

#ifndef GOVBENCH_BUILD_TYPE
#define GOVBENCH_BUILD_TYPE "unknown"
#endif

namespace lakeguard {
namespace govbench {
namespace {

constexpr size_t kMinRounds = 3;        // setup_s is the median of these
constexpr double kMaxRunSeconds = 120;  // no new round starts after this
constexpr size_t kTracedPairs = 3;      // untraced + traced rounds per traced run
constexpr long kTmpfsMagic = 0x01021994;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool self_test_only = false;
  std::string commit = "unknown";
  std::string work_dir = "govbench-work";
};

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      o->self_test_only = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o->workload = value;
    } else if (arg == "--seed") {
      o->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o->seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      o->trace = value == "1";
    } else if (arg == "--commit") {
      o->commit = value;
    } else if (arg == "--work-dir") {
      o->work_dir = value;
    } else {
      return false;
    }
  }
  return o->self_test_only || !o->workload.empty();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Public counters of the layers, read at the edges of a timed phase.
struct Counters {
  PolicyEvalCache::Stats policy;
  DispatcherStats dispatch;
  VerifierCacheStats verifier;
  size_t audit_events = 0;
  DurableLogStats catalog_wal;
  DurableLogStats audit_wal;
  uint64_t retries = 0;
  double cpu_s = 0;
};

Counters ReadCounters(Round& r) {
  Counters c;
  LakeguardPlatform& p = *r.platform;
  c.policy = p.policy_cache().stats();
  c.dispatch = r.cluster->cluster->driver_host().dispatcher().stats();
  c.verifier = VerifiedProgramCache::Global()->stats();
  c.audit_events = p.catalog().audit().size();  // flushes the audit queue
  if (p.catalog_store() != nullptr) c.catalog_wal = p.catalog_store()->log().stats();
  if (p.audit_wal() != nullptr) c.audit_wal = p.audit_wal()->stats();
  for (const Session& s : r.sessions) {
    if (s.client) c.retries += s.client->stats().rpc_retries + s.client->stats().chunk_retries;
  }
  c.retries += p.gateway().stats().stream_resumes;
  c.cpu_s = CpuSeconds();
  return c;
}

struct PhaseResult {
  Samples samples;
  double wall_s = 0;
  /// Sum over the clients of each client's operations (and work rows) per
  /// second of its own time, not counting the benchmark's result checks.
  double ops_per_s = 0;
  double rows_per_s = 0;
  uint64_t ops = 0;
  uint64_t read_ops = 0;
  Tally tally;
};

/// Runs every thread's fixed operation list, closed loop: each client sends
/// its next operation only after the previous one returned and was checked.
/// With `traces`, each client call is recorded as a root span and nothing
/// else happens between calls; the calls are decomposed once every client
/// has finished, so the traced loop offers the same load as an untraced one.
PhaseResult RunPhase(Round& r, const Workload& w,
                     std::vector<TraceBuffer>* traces) {
  const size_t n = w.threads();
  std::vector<PhaseResult> parts(n);
  auto body = [&](size_t t) {
    PhaseResult& part = parts[t];
    part.samples.Resize(w.classes().size());
    const std::vector<Op>& ops = w.ops(t);
    uint64_t work_rows = 0;
    int64_t check_ns = 0;
    const int64_t begin = NowNs();
    for (size_t i = 0; i < ops.size(); ++i) {
      const Op& op = ops[i];
      const int64_t start = NowNs();
      Result<Table> result = Execute(r, op);
      const int64_t end = NowNs();
      const bool ok = CheckResult(op, result, &part.tally);
      if (traces != nullptr) RecordCall(op, i, start, end, ok, (*traces)[t]);
      check_ns += NowNs() - end;
      const double ms = static_cast<double>(end - start) / 1e6;
      part.samples.Add(op.cls, ms);
      ++part.ops;
      if (op.kind == OpKind::kRead) ++part.read_ops;
      work_rows += op.work_rows;
    }
    const double busy_s =
        std::max(static_cast<double>(NowNs() - begin - check_ns) / 1e9, 1e-9);
    part.ops_per_s = static_cast<double>(part.ops) / busy_s;
    part.rows_per_s = static_cast<double>(work_rows) / busy_s;
  };
  const int64_t start = NowNs();
  if (n == 1) {
    body(0);
  } else {
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (size_t t = 0; t < n; ++t) {
      threads.emplace_back([&, t] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        body(t);
      });
    }
    go.store(true, std::memory_order_release);
    for (std::thread& thread : threads) thread.join();
  }
  PhaseResult out;
  out.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  out.samples.Resize(w.classes().size());
  for (const PhaseResult& part : parts) {
    out.samples.Merge(part.samples);
    out.ops_per_s += part.ops_per_s;
    out.rows_per_s += part.rows_per_s;
    out.ops += part.ops;
    out.read_ops += part.read_ops;
    out.tally.Merge(part.tally);
  }
  return out;
}

/// Replays every call recorded in `tb`, whose operation ids index `ops`.
void DecomposeCalls(Round& r, const Workload& w, const std::vector<Op>& ops,
                    TraceBuffer& tb) {
  const size_t calls = tb.spans.size();
  for (size_t i = 0; i < calls; ++i) {
    Decompose(r, w, ops[static_cast<size_t>(tb.spans[i].op)], static_cast<int64_t>(i), tb);
  }
}

/// Binds the calling thread to one CPU (`cpu` >= 0) or to all of them.
/// Threads the platform starts inherit the binding of the thread that
/// creates them, so it is applied only after setup.
void BindToCpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int n = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  for (int c = 0; c < n; ++c) {
    if (cpu < 0 || c == cpu % n) CPU_SET(c, &set);
  }
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

struct RoundResult {
  bool ok = false;
  double setup_s = 0;
  PhaseResult phase;
  Counters before;
  Counters after;
  SetupWal setup_wal;
  Tally setup_tally;
};

/// One round on a fresh platform. A single-client workload's timed phase
/// runs bound to CPU `cpu` (-1: unbound).
RoundResult RunRound(const Workload& w, const Options& o, int cpu,
                     TraceBuffer* setup_trace,
                     std::vector<TraceBuffer>* traces) {
  RoundResult out;
  Round r;
  r.work_dir = o.work_dir;
  r.setup_trace = setup_trace;
  const int64_t start = NowNs();
  Status setup = w.Setup(r);
  out.setup_s = static_cast<double>(NowNs() - start) / 1e9;
  out.setup_wal = r.setup_wal;
  out.setup_tally = r.tally;
  if (!setup.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", setup.ToString().c_str());
    if (out.setup_tally.failed == 0) ++out.setup_tally.failed;
    return out;
  }
  const bool bind = w.threads() == 1 && cpu >= 0;
  if (bind) BindToCpu(cpu);
  out.before = ReadCounters(r);
  out.phase = RunPhase(r, w, traces);
  out.after = ReadCounters(r);
  if (bind) BindToCpu(-1);
  if (traces != nullptr) {
    Status opened = OpenReplayCluster(r);
    if (!opened.ok()) {
      std::fprintf(stderr, "replay cluster failed: %s\n", opened.ToString().c_str());
      ++out.phase.tally.failed;
      return out;
    }
    // Setup's writes first, then the clients' calls, each in the order they
    // were made, so the replay passes through the catalog states the calls
    // saw.
    DecomposeCalls(r, w, w.setup_writes(), *setup_trace);
    for (size_t t = 0; t < traces->size(); ++t) {
      DecomposeCalls(r, w, w.ops(t), (*traces)[t]);
    }
  }
  out.ok = true;
  return out;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Mean over the classes `pick` selects of each class's p50, where a
/// class's p50 is the lowest over rounds of its per-round median. Every class
/// weighs the same, so the figure cannot jump between classes the way the
/// median of a mixed sample does. Host interference only ever adds time, so
/// the best of several fixed-work rounds is the figure it disturbs least.
template <typename F>
double MeanClassP50(const Workload& w, const std::vector<const Samples*>& rounds,
                    F pick) {
  double sum = 0;
  int n = 0;
  for (size_t c = 0; c < w.classes().size(); ++c) {
    if (!pick(w.classes()[c])) continue;
    std::vector<double> per_round;
    for (const Samples* s : rounds) {
      if (c < s->by_class.size() && !s->by_class[c].empty()) {
        per_round.push_back(Median(s->by_class[c]));
      }
    }
    if (per_round.empty()) continue;
    sum += *std::min_element(per_round.begin(), per_round.end());
    ++n;
  }
  return n == 0 ? 0.0 : sum / n;
}

/// p50, the highest of p90/p99/p99.9 with at least ten samples beyond it,
/// and the sample count. Printed, never gated.
void PrintClasses(const char* label, const Workload& w, const Samples& s) {
  for (size_t c = 0; c < w.classes().size() && c < s.by_class.size(); ++c) {
    const std::vector<double>& v = s.by_class[c];
    if (v.empty()) continue;
    std::string tail = "no tail (needs 100 samples for p90)";
    for (double q : {0.999, 0.99, 0.9}) {
      if (static_cast<double>(v.size()) * (1 - q) >= 10) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "p%g %.3f ms", q * 100, Quantile(v, q));
        tail = buf;
        break;
      }
    }
    std::printf("class %-8s %-7s n=%-6zu p50 %.3f ms  %s\n", label,
                w.classes()[c].name.c_str(), v.size(), Median(v), tail.c_str());
  }
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
  /// Printed with the value: how many samples it summarizes, and of what.
  size_t samples = 0;
  const char* of = "";
};

void PrintResult(bool correct, const Tally& tally, const std::vector<Metric>& metrics) {
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(tally.attempted) +
                     ", \"failed\": " + std::to_string(tally.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void PrintMeta(const Options& o, const Workload& w) {
  std::error_code ec;
  std::filesystem::create_directories(o.work_dir, ec);
  struct statfs fs{};
  const bool tmpfs = statfs(o.work_dir.c_str(), &fs) == 0 &&
                     static_cast<long>(fs.f_type) == kTmpfsMagic;
  std::printf(
      "{\"meta\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"build_type\": \"%s\", \"commit\": \"%s\", "
      "\"nproc\": %u, \"threads\": %zu, \"ops_per_round\": %zu, "
      "\"durable_root_fs\": \"%s\"}}\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
      o.trace ? 1 : 0, GOVBENCH_BUILD_TYPE, o.commit.c_str(),
      std::thread::hardware_concurrency(), w.threads(), w.op_count(),
      tmpfs ? "tmpfs" : "disk");
}

int RunUntraced(const Workload& w, const Options& o, bool self_test_ok) {
  std::vector<RoundResult> rounds;
  const int64_t start = NowNs();
  auto elapsed = [&] { return static_cast<double>(NowNs() - start) / 1e9; };
  // A single client's rounds take the CPUs in turn, so that a run is not
  // measured entirely on one CPU that the host happens to slow down.
  while (rounds.size() < kMinRounds ||
         (elapsed() < o.seconds && elapsed() < kMaxRunSeconds)) {
    rounds.push_back(RunRound(w, o, static_cast<int>(rounds.size()), nullptr, nullptr));
    if (!rounds.back().ok) break;
  }

  Tally tally;
  Samples timed;
  timed.Resize(w.classes().size());
  std::vector<double> setups, ops_per_s, rows_per_s;
  std::vector<const Samples*> timed_rounds;
  for (const RoundResult& rr : rounds) {
    timed_rounds.push_back(&rr.phase.samples);
    tally.Merge(rr.setup_tally);
    tally.Merge(rr.phase.tally);
    setups.push_back(rr.setup_s);
    timed.Merge(rr.phase.samples);
    ops_per_s.push_back(rr.phase.ops_per_s);
    rows_per_s.push_back(rr.phase.rows_per_s);
  }
  const bool all_ok = !rounds.empty() && rounds.back().ok;
  auto any = [](const ClassInfo&) { return true; };
  for (size_t i = 0; i < rounds.size(); ++i) {
    const RoundResult& rr = rounds[i];
    std::printf("round %zu: setup %.3f s, timed %.3f s, %.1f ops/s, latency p50 %.3f ms\n",
                i, rr.setup_s, rr.phase.wall_s, rr.phase.ops_per_s,
                MeanClassP50(w, {&rr.phase.samples}, any));
  }
  PrintClasses("timed", w, timed);

  auto count = [&](auto pick) {
    size_t n = 0;
    for (size_t c = 0; c < w.classes().size(); ++c) {
      if (pick(w.classes()[c])) n += timed.by_class[c].size();
    }
    return n;
  };
  const size_t n_rounds = rounds.size();
  // The result line carries the metrics BENCHMARK.json gates; the reads and
  // the admin's writes are printed apart (they differ from latency_p50_ms
  // only in governance_churn, the one workload with timed writes).
  std::vector<Metric> metrics = {
      {"setup_s", "s", Median(setups), n_rounds, "rounds"},
      {"qps", "1/s", *std::max_element(ops_per_s.begin(), ops_per_s.end()), n_rounds,
       "rounds"},
      {"latency_p50_ms", "ms", MeanClassP50(w, timed_rounds, any), count(any), "calls"},
      {"rows_per_s", "rows/s", *std::max_element(rows_per_s.begin(), rows_per_s.end()),
       n_rounds, "rounds"},
      {"peak_rss_mb", "MB", PeakRssMb(), 1, "process"},
  };
  auto is_read = [](const ClassInfo& c) { return !c.write; };
  auto is_write = [](const ClassInfo& c) { return c.write; };
  std::vector<Metric> printed = {
      {"read_p50_ms", "ms", MeanClassP50(w, timed_rounds, is_read), count(is_read), "calls"},
      {"write_p50_ms", "ms", MeanClassP50(w, timed_rounds, is_write), count(is_write),
       "calls"},
  };
  std::printf("metrics over %zu rounds (setup_s: median; the rest: best round):\n",
              n_rounds);
  for (const auto* list : {&metrics, &printed}) {
    for (const Metric& m : *list) {
      if (m.samples == 0) continue;
      std::printf("metric %-16s %-12.6g %-7s n=%zu %s%s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples, m.of, list == &printed ? " (not gated)" : "");
    }
  }
  PrintResult(self_test_ok && all_ok && tally.failed == 0 && tally.violations == 0,
              tally, metrics);
  return 0;
}

int RunTraced(const Workload& w, const Options& o, bool self_test_ok) {
  // Untraced (A) and traced (B) rounds alternate, a single client's all on
  // the same CPU. A B round runs the same closed loop recording each call,
  // then replays the calls through the layers. The first A round reads the
  // layers' counters at the edges of its timed phase; the last B round's
  // spans are reported; trace.overhead_pct compares the best B round with
  // the best A round.
  std::vector<RoundResult> a_rounds, b_rounds;
  TraceBuffer setup_trace;
  std::vector<TraceBuffer> traces;
  Tally tally;
  bool all_ok = true;
  for (size_t i = 0; i < kTracedPairs && all_ok; ++i) {
    a_rounds.push_back(RunRound(w, o, 0, nullptr, nullptr));
    setup_trace = TraceBuffer();
    traces.assign(w.threads(), TraceBuffer());
    b_rounds.push_back(a_rounds.back().ok ? RunRound(w, o, 0, &setup_trace, &traces)
                                          : RoundResult());
    for (const RoundResult* rr : {&a_rounds.back(), &b_rounds.back()}) {
      tally.Merge(rr->setup_tally);
      tally.Merge(rr->phase.tally);
      all_ok = all_ok && rr->ok;
    }
  }
  const RoundResult& a = a_rounds.front();
  const RoundResult& b = b_rounds.back();
  std::vector<const Samples*> a_samples, b_samples;
  for (const RoundResult& rr : a_rounds) a_samples.push_back(&rr.phase.samples);
  for (const RoundResult& rr : b_rounds) b_samples.push_back(&rr.phase.samples);

  std::vector<const TraceBuffer*> timed;
  std::vector<std::pair<std::string, const TraceBuffer*>> labelled = {
      {"setup", &setup_trace}};
  TraceCounts counts;
  for (size_t t = 0; t < traces.size(); ++t) {
    timed.push_back(&traces[t]);
    labelled.push_back({"client" + std::to_string(t), &traces[t]});
    counts.Merge(traces[t].counts);
  }
  std::map<std::string, LayerRow> layers;
  for (const LayerRow& row : SummarizeSpans(timed)) layers[row.name] = row;
  std::map<std::string, LayerRow> setup_layers;
  for (const LayerRow& row : SummarizeSpans({&setup_trace})) setup_layers[row.name] = row;

  const std::string span_path = o.work_dir + "/spans-" + o.workload + "-" +
                                std::to_string(o.seed) + ".jsonl";
  const bool dumped = DumpSpans(labelled, span_path);
  size_t span_count = setup_trace.spans.size();
  for (const TraceBuffer& tb : traces) span_count += tb.spans.size();
  std::printf("spans: %zu written to %s%s\n", span_count, span_path.c_str(),
              dumped ? "" : " (write failed)");

  std::printf("layer table (traced round; busy = self time):\n");
  std::printf("  %-22s %8s %12s %12s %8s\n", "span", "calls", "busy_ms", "total_ms",
              "failures");
  for (const auto* table : {&layers, &setup_layers}) {
    for (const auto& [name, row] : *table) {
      std::printf("  %-22s %8llu %12.3f %12.3f %8llu%s\n", name.c_str(),
                  static_cast<unsigned long long>(row.calls), row.self_ms,
                  row.total_ms, static_cast<unsigned long long>(row.failures),
                  table == &setup_layers ? "  (setup)" : "");
    }
  }

  auto total = [&](const char* name) {
    auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.total_ms;
  };
  auto calls = [&](const char* name) {
    auto it = layers.find(name);
    return it == layers.end() ? 0.0 : static_cast<double>(it->second.calls);
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto any = [](const ClassInfo&) { return true; };
  const double reads = static_cast<double>(counts.read_ops);
  const double udf_ops = static_cast<double>(counts.udf_ops);
  const double ops_a = static_cast<double>(a.phase.ops);
  const double reads_a = static_cast<double>(a.phase.read_ops);
  const double writes_a = ops_a - reads_a;
  const PolicyEvalCache::Stats& p0 = a.before.policy;
  const PolicyEvalCache::Stats& p1 = a.after.policy;
  const double hits = static_cast<double>((p1.hits - p0.hits) +
                                          (p1.revalidations - p0.revalidations));
  const double lookups = hits + static_cast<double>((p1.misses - p0.misses) +
                                                    (p1.invalidations - p0.invalidations));
  const DispatcherStats& d0 = a.before.dispatch;
  const DispatcherStats& d1 = a.after.dispatch;
  const double reuses = static_cast<double>(d1.reuses - d0.reuses);
  const double cold = static_cast<double>(d1.cold_starts - d0.cold_starts);
  const double vhits = static_cast<double>(a.after.verifier.hits - a.before.verifier.hits);
  const double vmiss = static_cast<double>(a.after.verifier.misses - a.before.verifier.misses);
  // Catalog publishes and their WAL records: the timed phase's if it has
  // writes, else setup's.
  const bool timed_publish = calls("catalog.publish") > 0;
  const LayerRow publish = timed_publish ? layers["catalog.publish"]
                                         : setup_layers["catalog.publish"];
  const double wal_writes =
      timed_publish ? writes_a : static_cast<double>(a.setup_wal.writes);
  const double wal_bytes =
      timed_publish ? static_cast<double>(a.after.catalog_wal.bytes_appended -
                                          a.before.catalog_wal.bytes_appended)
                    : static_cast<double>(a.setup_wal.bytes);
  const double wal_syncs =
      timed_publish
          ? static_cast<double>(a.after.catalog_wal.syncs - a.before.catalog_wal.syncs)
          : static_cast<double>(a.setup_wal.syncs);

  std::vector<Metric> metrics = {
      {"connect.service_self_ms", "ms", ratio(layers["connect.call"].self_ms, reads)},
      {"connect.wire_us", "us", ratio(total("connect.wire") * 1e3, reads)},
      {"connect.chunks_per_query", "count", ratio(static_cast<double>(counts.frames), reads)},
      {"connect.bytes_per_row", "B/row",
       ratio(static_cast<double>(counts.frame_bytes), static_cast<double>(counts.result_rows))},
      {"connect.retries", "count", static_cast<double>(a.after.retries - a.before.retries)},
      {"sql.parse_us", "us", ratio(total("sql.parse") * 1e3, calls("sql.parse"))},
      {"engine.analyze_us", "us", ratio(total("engine.analyze") * 1e3, reads)},
      {"engine.verify_us", "us", ratio(total("engine.verify") * 1e3, reads)},
      {"engine.optimize_us", "us", ratio(total("engine.optimize") * 1e3, reads)},
      {"engine.execute_ms", "ms", ratio(total("engine.execute"), reads)},
      {"engine.rows_scanned", "count", ratio(static_cast<double>(counts.rows_scanned), reads)},
      {"engine.rows_examined_per_result", "ratio",
       ratio(static_cast<double>(counts.rows_scanned), static_cast<double>(counts.result_rows))},
      {"engine.batches_emitted", "count", ratio(static_cast<double>(counts.batches_emitted), reads)},
      {"engine.peak_bytes_mb", "MB", static_cast<double>(counts.peak_bytes) / (1024.0 * 1024.0)},
      {"expr.policy_cache_hit_ratio", "ratio", ratio(hits, lookups)},
      {"expr.policy_compiles_per_read", "count",
       ratio(static_cast<double>(p1.compiles - p0.compiles), reads_a)},
      {"expr.compile_us", "us", ratio(total("expr.compile") * 1e3, calls("expr.compile"))},
      {"storage.read_ms", "ms", ratio(total("storage.read"), reads)},
      {"storage.parts_per_scan", "count",
       ratio(static_cast<double>(counts.parts), static_cast<double>(counts.scans))},
      {"storage.bytes_per_row", "B/row",
       ratio(static_cast<double>(counts.part_bytes), static_cast<double>(counts.part_rows))},
      {"columnar.ipc_encode_ms", "ms", ratio(total("columnar.ipc_encode"), reads)},
      {"columnar.ipc_decode_ms", "ms", ratio(total("columnar.ipc_decode"), reads)},
      {"catalog.publish_us", "us", ratio(publish.total_ms * 1e3, static_cast<double>(publish.calls))},
      {"catalog.wal_bytes_per_write", "B", ratio(wal_bytes, wal_writes)},
      {"catalog.wal_syncs_per_write", "count", ratio(wal_syncs, wal_writes)},
      {"catalog.audit_events_per_query", "count",
       ratio(static_cast<double>(a.after.audit_events - a.before.audit_events), ops_a)},
      {"catalog.audit_wal_bytes_per_query", "B",
       ratio(static_cast<double>(a.after.audit_wal.bytes_appended -
                                 a.before.audit_wal.bytes_appended), ops_a)},
      {"sandbox.dispatches_per_query", "count", ratio(static_cast<double>(counts.dispatches), udf_ops)},
      {"sandbox.reuse_ratio", "ratio", ratio(reuses, reuses + cold)},
      {"sandbox.batch_splits", "count", static_cast<double>(counts.batch_splits)},
      {"udf.verifier_cache_hit_ratio", "ratio", ratio(vhits, vhits + vmiss)},
      {"process.cpu_ms_per_op", "ms", ratio((a.after.cpu_s - a.before.cpu_s) * 1e3, ops_a)},
      {"trace.overhead_pct", "%",
       (ratio(MeanClassP50(w, b_samples, any), MeanClassP50(w, a_samples, any)) - 1) * 100},
  };
  // Time spent only by the udf workload: printed, not in the result line
  // (elsewhere they are zero, and a zero time is not a measurement).
  std::vector<Metric> udf_only = {
      {"sandbox.dispatch_ms", "ms", ratio(total("sandbox.dispatch"), udf_ops)},
      {"udf.vm_us_per_row", "us",
       ratio(total("udf.vm") * 1e3, static_cast<double>(counts.vm_rows))},
      {"udf.verify_cached_us", "us", ratio(total("udf.verify_cached") * 1e3,
                                           calls("udf.verify_cached"))},
  };
  std::printf("per-layer metrics (reads=%llu, udf ops=%llu, ops in untraced round=%llu):\n",
              static_cast<unsigned long long>(counts.read_ops),
              static_cast<unsigned long long>(counts.udf_ops),
              static_cast<unsigned long long>(a.phase.ops));
  for (const auto* list : {&metrics, &udf_only}) {
    for (const Metric& m : *list) {
      std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::printf("  %-34s %14.6g %s\n", "process.wall_ms_per_op",
              ratio(a.phase.wall_s * 1e3, ops_a), "ms");

  // Where a read's latency goes: the call's p50 against the p50 of its
  // residual (the call minus its replayed pipeline).
  std::vector<double> call_ms, self_ms;
  for (const TraceBuffer& tb : traces) {
    for (const Span& s : tb.spans) {
      if (std::strcmp(s.name, "connect.call") == 0) {
        call_ms.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
      }
    }
    std::vector<double> self = SelfTimesMs(tb, "connect.call");
    self_ms.insert(self_ms.end(), self.begin(), self.end());
  }
  const double mean_call = ratio(total("connect.call"), reads);
  std::printf("read latency: call p50 %.3f ms, service self p50 %.3f ms; mean call %.3f ms =",
              Median(call_ms), Median(self_ms), mean_call);
  for (const char* name : {"connect.call", "sql.parse", "engine.analyze", "engine.verify",
                           "engine.optimize", "engine.execute", "columnar.ipc_encode",
                           "connect.wire", "columnar.ipc_decode"}) {
    const double ms = std::strcmp(name, "connect.call") == 0
                          ? ratio(layers["connect.call"].self_ms, reads)
                          : ratio(total(name), reads);
    std::printf(" %s %.3f (%.0f%%)", std::strcmp(name, "connect.call") == 0 ? "self" : name,
                ms, ratio(ms, mean_call) * 100);
  }
  std::printf("\n");
  PrintClasses("traced", w, b.phase.samples);

  PrintResult(self_test_ok && all_ok && tally.failed == 0 && tally.violations == 0,
              tally, metrics);
  return 0;
}

}  // namespace
}  // namespace govbench
}  // namespace lakeguard

int main(int argc, char** argv) {
  using namespace lakeguard::govbench;
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: govbench --workload <interactive|analytic|udf|"
                 "governance_churn> --seed <n> --seconds <s> --trace <0|1>\n"
                 "       govbench --self-test\n");
    return 2;
  }
  std::string report;
  const bool self_test_ok = RunSelfTest(&report);
  std::printf("%s", report.c_str());
  if (options.self_test_only) return self_test_ok ? 0 : 1;

  std::unique_ptr<Workload> workload = MakeWorkload(options.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  workload->Generate(options.seed);
  PrintMeta(options, *workload);
  return options.trace ? RunTraced(*workload, options, self_test_ok)
                       : RunUntraced(*workload, options, self_test_ok);
}
