// Workloads, rounds and the traced decomposition of the governed-query
// benchmark (see README.md).
#ifndef GOVBENCH_WORKLOAD_H_
#define GOVBENCH_WORKLOAD_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"

namespace lakeguard {
namespace govbench {

/// One client session: a Connect client on the round's cluster, or an
/// external session id on the gateway.
struct Session {
  std::string user;
  std::optional<ConnectClient> client;
  std::string gateway_id;
};

/// Operations attempted, failed (error or reference mismatch) and the
/// governance violations among the failures.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t violations = 0;
  void Merge(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    violations += o.violations;
  }
};

/// What setup's governance writes appended to a durable catalog's WAL.
struct SetupWal {
  uint64_t writes = 0;
  uint64_t bytes = 0;
  uint64_t syncs = 0;
};

/// One round: a fresh platform, set up, then measured on the workload's
/// fixed operations. Rounds share only the generated data and operations,
/// so memory does not accumulate from one round to the next.
struct Round {
  Round() = default;
  Round(const Round&) = delete;
  Round& operator=(const Round&) = delete;
  ~Round();

  std::string work_dir;
  std::string durable_root;  // set for workloads that persist the catalog
  std::unique_ptr<LakeguardPlatform> platform;
  ClusterHandle* cluster = nullptr;
  Session admin;
  std::vector<Session> sessions;
  /// Traced rounds replay each operation through public calls on a cluster
  /// of their own, as the same principals (see `OpenReplayCluster`).
  ClusterHandle* trace_cluster = nullptr;
  std::map<std::string, ExecutionContext> trace_ctx;
  /// Where a traced round records setup's writes (null: untraced).
  TraceBuffer* setup_trace = nullptr;
  SetupWal setup_wal;
  Tally tally;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Makes the rows, the setup statements and every operation from `seed`.
  virtual void Generate(uint64_t seed) = 0;
  /// Everything before the timed phase: platform, data load, governance
  /// writes, UDF registration, sessions and one warm-up pass per class.
  virtual Status Setup(Round& r) const = 0;
  /// Workload-specific traced calls after an operation's decomposition.
  virtual void TraceExtra(Round&, const Op&, uint64_t /*op_id*/,
                          TraceBuffer&) const {}

  const std::vector<ClassInfo>& classes() const { return classes_; }
  /// The governance writes setup makes through the admin session.
  const std::vector<Op>& setup_writes() const { return setup_writes_; }
  /// One operation list per client thread.
  size_t threads() const { return ops_.size(); }
  const std::vector<Op>& ops(size_t thread) const { return ops_[thread]; }
  size_t op_count() const {
    size_t n = 0;
    for (const auto& list : ops_) n += list.size();
    return n;
  }

 protected:
  std::vector<ClassInfo> classes_;
  std::vector<Op> setup_writes_;
  std::vector<std::vector<Op>> ops_;
};

/// Null for an unknown name. Names: interactive, analytic, udf,
/// governance_churn.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

/// Sends `op` through its session (gateway or Connect client).
Result<Table> Execute(Round& r, const Op& op);

/// Checks an operation's outcome against its reference and counts it.
/// Returns false (and counts a failure) on an error, a governance violation
/// or a result that differs from the expected one.
bool CheckResult(const Op& op, const Result<Table>& result, Tally* tally);

/// Opens the cluster a traced round replays reads on, with a direct context
/// for the admin and every session's principal. Called once the timed phase
/// has ended, so that traced and untraced rounds time the same platform.
Status OpenReplayCluster(Round& r);

/// Traced run: records the client call of `op` (operation id `op_id`) as a
/// root span and returns its index.
int64_t RecordCall(const Op& op, uint64_t op_id, int64_t start_ns,
                   int64_t end_ns, bool ok, TraceBuffer& tb);

/// Replays the operation of the root span `root` through public calls
/// (parse, analyze, verify, optimize, execute, IPC encode, wire, IPC decode)
/// as the root's children, then the workload-specific calls (storage read,
/// policy compile, sandbox, VM) as roots of the same operation.
void Decompose(Round& r, const Workload& w, const Op& op, int64_t root,
               TraceBuffer& tb);

/// Per span name: calls, busy (self) time, total time and failures. A
/// span's self time is its duration minus its direct children's.
struct LayerRow {
  std::string name;
  uint64_t calls = 0;
  double self_ms = 0;
  double total_ms = 0;
  uint64_t failures = 0;
};
std::vector<LayerRow> SummarizeSpans(const std::vector<const TraceBuffer*>& buffers);

/// Self times (ms) of every span named `name` in one buffer.
std::vector<double> SelfTimesMs(const TraceBuffer& tb, const char* name);

/// Writes every span as one JSON line, labelled with its buffer's name.
bool DumpSpans(const std::vector<std::pair<std::string, const TraceBuffer*>>& buffers,
               const std::string& path);

}  // namespace govbench
}  // namespace lakeguard

#endif  // GOVBENCH_WORKLOAD_H_
