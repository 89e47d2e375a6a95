// Data generation and the governance reference check.
#include <algorithm>
#include <cmath>

#include "bench.h"

namespace lakeguard {
namespace govbench {

namespace {

const char* const kRegions[] = {"US", "EU", "APAC"};

uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

std::vector<Row> GenRows(Rng& rng, size_t n, int64_t categories) {
  std::vector<Row> rows(n);
  for (size_t i = 0; i < n; ++i) {
    Row& r = rows[i];
    r.id = static_cast<int64_t>(i);
    r.region = kRegions[rng.Next() % 3];
    r.seller = "s-" + rng.Word(10);
    r.category = rng.Uniform(0, categories - 1);
    r.amount = rng.Uniform(1, 1000);
  }
  return rows;
}

std::vector<DimRow> GenDim(Rng& rng, size_t n, int64_t name_groups) {
  std::vector<DimRow> rows(n);
  for (size_t i = 0; i < n; ++i) {
    rows[i].id = static_cast<int64_t>(i);
    rows[i].name = "dept-" + std::to_string(static_cast<int64_t>(i) % name_groups);
    rows[i].owner = "o-" + rng.Word(8);
  }
  return rows;
}

std::string Mask(const std::string& s) {
  if (s.size() <= 4) return std::string(s.size(), '*');
  return std::string(s.size() - 4, '*') + s.substr(s.size() - 4);
}

DigestBuilder& DigestBuilder::Int(int64_t v) {
  row_ = (row_ ^ Mix(static_cast<uint64_t>(v) + 1)) * 0x100000001b3ull;
  return *this;
}

DigestBuilder& DigestBuilder::Str(const std::string& v) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : v) h = (h ^ c) * 0x100000001b3ull;
  row_ = (row_ ^ Mix(h + 2)) * 0x100000001b3ull;
  return *this;
}

DigestBuilder& DigestBuilder::Null() {
  row_ = (row_ ^ 0x5bd1e995ull) * 0x100000001b3ull;
  return *this;
}

void DigestBuilder::EndRow() {
  digest_.checksum += Mix(row_);
  ++digest_.rows;
  row_ = 0xcbf29ce484222325ull;
}

Digest DigestTable(const Table& table) {
  DigestBuilder b;
  for (const RecordBatch& batch : table.batches()) {
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      for (size_t c = 0; c < batch.num_columns(); ++c) {
        const Column& col = batch.column(c);
        if (col.kind() == TypeKind::kNull || col.IsNull(r)) {
          b.Null();
          continue;
        }
        switch (col.kind()) {
          case TypeKind::kInt64:
            b.Int(col.IntAt(r));
            break;
          case TypeKind::kBool:
            b.Int(col.BoolAt(r) ? 1 : 0);
            break;
          case TypeKind::kString:
          case TypeKind::kBinary:
            b.Str(col.StringAt(r));
            break;
          default:
            b.Str(col.GetValue(r).ToString());
            break;
        }
      }
      b.EndRow();
    }
  }
  return b.digest();
}

size_t CountViolations(const Table& result, const GovView& view) {
  const Schema& schema = result.schema();
  const int id_col = schema.FindField("id");
  const int region_col = schema.FindField("region");
  std::vector<int> masked_cols;
  for (const char* name : {"seller", "owner"}) {
    int c = schema.FindField(name);
    if (c >= 0) masked_cols.push_back(c);
  }
  size_t violations = 0;
  for (const RecordBatch& batch : result.batches()) {
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      bool bad = false;
      for (int c : masked_cols) {
        const Column& col = batch.column(static_cast<size_t>(c));
        if (col.IsNull(r)) continue;
        const std::string& v = col.StringAt(r);
        if (v.empty() || v[0] != '*') bad = true;  // unmasked value
      }
      if (region_col >= 0) {
        const Column& col = batch.column(static_cast<size_t>(region_col));
        if (!col.IsNull(r) && !view.global &&
            col.StringAt(r) != view.visible_region) {
          bad = true;  // a row the principal's filter excludes
        }
      }
      if (id_col >= 0 && view.rows != nullptr) {
        const Column& col = batch.column(static_cast<size_t>(id_col));
        int64_t id = col.IsNull(r) ? -1 : col.IntAt(r);
        if (id < 0 || static_cast<size_t>(id) >= view.rows->size() ||
            !view.Visible((*view.rows)[static_cast<size_t>(id)])) {
          bad = true;
        }
      }
      if (bad) ++violations;
    }
  }
  return violations;
}

bool RunSelfTest(std::string* report) {
  // Four rows; the principal is US-only, so ids 0 and 2 are visible.
  std::vector<Row> rows = {{0, "US", "s-alpha12345", 1, 10},
                           {1, "EU", "s-bravo12345", 1, 20},
                           {2, "US", "s-charl12345", 2, 30},
                           {3, "APAC", "s-delta12345", 2, 40}};
  GovView view;
  view.rows = &rows;
  view.visible_region = "US";
  Schema schema(std::vector<FieldDef>{{"id", TypeKind::kInt64, false},
                                      {"region", TypeKind::kString, false},
                                      {"seller", TypeKind::kString, false}});
  auto make = [&](const std::vector<std::vector<Value>>& cells) {
    TableBuilder builder(schema);
    for (const auto& row : cells) (void)builder.AppendRow(row);
    return builder.Build();
  };
  auto cell = [&](size_t id, bool masked) {
    const Row& r = rows[id];
    return std::vector<Value>{Value::Int(r.id), Value::String(r.region),
                              Value::String(masked ? Mask(r.seller) : r.seller)};
  };
  DigestBuilder expected;
  for (size_t id : {0u, 2u}) {
    expected.Int(rows[id].id).Str(rows[id].region).Str(Mask(rows[id].seller));
    expected.EndRow();
  }

  struct Case {
    const char* name;
    Table table;
    bool should_pass;
  };
  std::vector<Case> cases;
  cases.push_back({"correct result", make({cell(2, true), cell(0, true)}), true});
  cases.push_back({"one unmasked seller", make({cell(0, true), cell(2, false)}), false});
  cases.push_back({"one filtered-out row",
                   make({cell(0, true), cell(1, true), cell(2, true)}), false});
  cases.push_back({"one missing row", make({cell(0, true)}), false});

  bool all_ok = true;
  for (const Case& c : cases) {
    const bool passed = CountViolations(c.table, view) == 0 &&
                        DigestTable(c.table) == expected.digest();
    const bool ok = passed == c.should_pass;
    all_ok = all_ok && ok;
    *report += std::string("self-test: ") + c.name + " -> " +
               (passed ? "accepted" : "rejected") + (ok ? " (ok)\n" : " (WRONG)\n");
  }
  return all_ok;
}

void Samples::Merge(const Samples& o) {
  if (by_class.size() < o.by_class.size()) by_class.resize(o.by_class.size());
  for (size_t i = 0; i < o.by_class.size(); ++i) {
    by_class[i].insert(by_class[i].end(), o.by_class[i].begin(),
                       o.by_class[i].end());
  }
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void TraceCounts::Merge(const TraceCounts& o) {
  read_ops += o.read_ops;
  result_rows += o.result_rows;
  rows_scanned += o.rows_scanned;
  batches_emitted += o.batches_emitted;
  peak_bytes = std::max(peak_bytes, o.peak_bytes);
  frames += o.frames;
  frame_bytes += o.frame_bytes;
  scans += o.scans;
  parts += o.parts;
  part_bytes += o.part_bytes;
  part_rows += o.part_rows;
  udf_ops += o.udf_ops;
  dispatches += o.dispatches;
  batch_splits += o.batch_splits;
  vm_rows += o.vm_rows;
}

}  // namespace govbench
}  // namespace lakeguard
