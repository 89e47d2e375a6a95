// Shared declarations of the governed-query benchmark (see README.md).
#ifndef GOVBENCH_BENCH_H_
#define GOVBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/platform.h"

namespace lakeguard {
namespace govbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Deterministic generator (splitmix64): the same seed gives the same rows,
/// principals' data and query parameters on every machine.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9e3779b97f4a7c15ull + 1) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  int64_t Uniform(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  std::string Word(size_t len) {
    static const char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
    std::string out(len, 'a');
    for (char& c : out) c = kAlphabet[Next() % 36];
    return out;
  }

 private:
  uint64_t state_;
};

// ---- Generated data ---------------------------------------------------------

/// One row of a governed table: (id, region, seller, category, amount).
/// `id` equals the row's index in its table.
struct Row {
  int64_t id = 0;
  std::string region;
  std::string seller;
  int64_t category = 0;
  int64_t amount = 0;
};

/// One row of a dimension table: (id, name, owner).
struct DimRow {
  int64_t id = 0;
  std::string name;
  std::string owner;
};

std::vector<Row> GenRows(Rng& rng, size_t n, int64_t categories);
std::vector<DimRow> GenDim(Rng& rng, size_t n, int64_t name_groups);

/// The engine's MASK(): all but the last four characters become '*'.
std::string Mask(const std::string& s);

// ---- Reference check --------------------------------------------------------

/// Row count plus an order-independent checksum of a result (the sum of
/// per-row hashes, each hash folding the row's cells in column order).
struct Digest {
  uint64_t rows = 0;
  uint64_t checksum = 0;
  bool operator==(const Digest& o) const {
    return rows == o.rows && checksum == o.checksum;
  }
};

class DigestBuilder {
 public:
  DigestBuilder& Int(int64_t v);
  DigestBuilder& Str(const std::string& v);
  DigestBuilder& Null();
  void EndRow();
  const Digest& digest() const { return digest_; }

 private:
  uint64_t row_ = 0xcbf29ce484222325ull;
  Digest digest_;
};

Digest DigestTable(const Table& table);

/// What one principal may see of one governed table: the rows of
/// `visible_region`, or every row for members of the `global` group. Masked
/// columns (`seller`, `owner`) must never come back unmasked.
struct GovView {
  const std::vector<Row>* rows = nullptr;  // indexed by id; null: no row check
  std::string visible_region = "US";
  bool global = false;
  bool Visible(const Row& r) const {
    return global || r.region == visible_region;
  }
};

/// Counts governance violations in a result: an unmasked `seller`/`owner`
/// value, or an `id`/`region` cell of a row outside the principal's filter.
size_t CountViolations(const Table& result, const GovView& view);

/// Shows that the check fires: a correct result passes, and a result with
/// one unmasked seller, one filtered-out row or one missing row fails.
bool RunSelfTest(std::string* report);

// ---- Operations -------------------------------------------------------------

enum class OpKind { kRead, kGrant, kRevoke, kSetFilter, kSetMask };

/// One generated operation. Reads carry their expected result; writes carry
/// the pieces the traced run needs to replay them as direct catalog calls.
struct Op {
  OpKind kind = OpKind::kRead;
  int cls = 0;      // index into the workload's class table
  int session = 0;  // index into the round's sessions (-1: admin)
  std::string sql;
  PlanPtr plan;  // set when the op is sent as a DataFrame plan
  Digest expect;
  GovView view;
  uint64_t work_rows = 0;  // rows this op scans (or passes to UDFs)
  int64_t param = 0;       // the generated query parameter
  // Writes only.
  std::string table;
  std::string privilege;
  std::string principal;
  std::string column;
  std::string expr;
};

struct ClassInfo {
  std::string name;
  bool write = false;
};

/// Latency samples in milliseconds, one vector per class.
struct Samples {
  std::vector<std::vector<double>> by_class;
  void Resize(size_t n) { by_class.resize(n); }
  void Add(int cls, double ms) { by_class[static_cast<size_t>(cls)].push_back(ms); }
  void Merge(const Samples& o);
};

double Quantile(std::vector<double> v, double q);

// ---- Tracing ----------------------------------------------------------------

/// One traced call: name, start, end, the span that caused it (-1 for a
/// root) and the operation it belongs to. Parents index the same buffer.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t op = 0;
  bool ok = true;
};

/// Counts read at the layer boundaries of the traced decomposition.
struct TraceCounts {
  uint64_t read_ops = 0;
  uint64_t result_rows = 0;
  uint64_t rows_scanned = 0;
  uint64_t batches_emitted = 0;
  uint64_t peak_bytes = 0;
  uint64_t frames = 0;
  uint64_t frame_bytes = 0;
  uint64_t scans = 0;
  uint64_t parts = 0;
  uint64_t part_bytes = 0;
  uint64_t part_rows = 0;
  uint64_t udf_ops = 0;
  uint64_t dispatches = 0;
  uint64_t batch_splits = 0;
  uint64_t vm_rows = 0;
  void Merge(const TraceCounts& o);
};

/// Spans and counts of one thread of the traced round.
struct TraceBuffer {
  std::vector<Span> spans;
  TraceCounts counts;

  /// Records a root span that has already ended; returns its index.
  int64_t AddRoot(const char* name, int64_t start_ns, int64_t end_ns,
                  uint64_t op, bool ok) {
    Span s;
    s.name = name;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    s.op = op;
    s.ok = ok;
    spans.push_back(s);
    return static_cast<int64_t>(spans.size()) - 1;
  }
  /// Opens a span now; returns its index for children and for `End`.
  int64_t Begin(const char* name, int64_t parent, uint64_t op) {
    Span s;
    s.name = name;
    s.start_ns = NowNs();
    s.parent = parent;
    s.op = op;
    spans.push_back(s);
    return static_cast<int64_t>(spans.size()) - 1;
  }
  void End(int64_t id, bool ok = true) {
    Span& s = spans[static_cast<size_t>(id)];
    s.end_ns = NowNs();
    s.ok = ok;
  }
};

}  // namespace govbench
}  // namespace lakeguard

#endif  // GOVBENCH_BENCH_H_
