// Traced run: each operation's client call is a root span, recorded while
// the clients run their closed loop exactly as untraced. Once the timed
// phase has ended, every recorded operation is replayed through public
// calls, one child span per layer, so the root's self time is what only the
// Connect service and the gateway add (routing, session and operation
// bookkeeping, chunk cache, lock wait). Work the replay re-measures inside
// `engine.execute` (storage reads, policy compiles, sandbox dispatch, the
// VM) is recorded as root spans of the same operation, so it is not
// subtracted twice.
#include <algorithm>
#include <cstdio>
#include <map>
#include <variant>

#include "columnar/ipc.h"
#include "connect/protocol.h"
#include "plan/plan_serde.h"
#include "sql/parser.h"
#include "storage/delta_table.h"
#include "workload.h"

namespace lakeguard {
namespace govbench {

namespace {

/// Compiles the fused program of every policy region (SecureView over
/// [mask Project] over [row-filter Filter] over a scan) in a resolved plan,
/// the way the executor does on a PolicyEvalCache miss.
void CompilePolicyRegions(const PlanPtr& plan, const std::string& principal,
                          uint64_t epoch, uint64_t op_id, TraceBuffer& tb) {
  if (plan->kind() == PlanKind::kSecureView) {
    PlanPtr cur = static_cast<const SecureViewNode&>(*plan).child();
    const ProjectNode* masks_node = nullptr;
    ExprPtr row_filter;
    if (cur->kind() == PlanKind::kProject) {
      masks_node = static_cast<const ProjectNode*>(cur.get());
      cur = masks_node->child();
    }
    if (cur->kind() == PlanKind::kFilter) {
      const auto& filter = static_cast<const FilterNode&>(*cur);
      if (filter.condition()->kind() == ExprKind::kFusedPolicy) {
        row_filter = filter.condition();
        cur = filter.child();
      }
    }
    if (cur->kind() == PlanKind::kResolvedScan) {
      const auto& scan = static_cast<const ResolvedScanNode&>(*cur);
      std::vector<ExprPtr> masks(scan.schema().num_fields());
      if (masks_node != nullptr && masks_node->exprs().size() == masks.size()) {
        for (size_t i = 0; i < masks.size(); ++i) {
          if (masks_node->exprs()[i]->kind() == ExprKind::kFusedPolicy) {
            masks[i] = masks_node->exprs()[i];
          }
        }
      }
      const int64_t span = tb.Begin("expr.compile", -1, op_id);
      const bool ok = CompileFusedPolicy(scan.table_name(), principal, epoch,
                                         scan.schema(), row_filter, masks)
                          .ok();
      tb.End(span, ok);
      return;
    }
  }
  for (const PlanPtr& child : plan->children()) {
    CompilePolicyRegions(child, principal, epoch, op_id, tb);
  }
}

void DecomposeRead(Round& r, const Workload& w, const Op& op, int64_t root,
                   uint64_t op_id, TraceBuffer& tb) {
  TraceCounts& c = tb.counts;
  ++c.read_ops;
  const std::string& user =
      op.session < 0 ? r.admin.user : r.sessions[static_cast<size_t>(op.session)].user;
  const ExecutionContext& ctx = r.trace_ctx.at(user);
  QueryEngine& engine = *r.trace_cluster->engine;
  UnityCatalog& catalog = r.platform->catalog();

  PlanPtr plan = op.plan;
  if (plan == nullptr) {
    const int64_t span = tb.Begin("sql.parse", root, op_id);
    Result<ParsedStatement> parsed = ParseSql(op.sql);
    const auto* select =
        parsed.ok() ? std::get_if<SelectStatement>(&*parsed) : nullptr;
    tb.End(span, select != nullptr);
    if (select == nullptr) return;
    plan = select->plan;
  }

  int64_t span = tb.Begin("engine.analyze", root, op_id);
  Result<AnalysisResult> analysis =
      Analyzer(&catalog, ctx, &r.platform->extensions()).Analyze(plan);
  tb.End(span, analysis.ok());
  if (!analysis.ok()) return;
  analysis->bound_principal = ctx.user;
  analysis->bound_compute_id = ctx.compute.compute_id;
  analysis->catalog_epoch = catalog.epoch();

  PlanVerifier verifier(&catalog, engine.config().exec.isolate_udfs);
  span = tb.Begin("engine.verify", root, op_id);
  Status verified = verifier.VerifyToStatus(analysis->plan, ctx, &*analysis,
                                            "after analysis");
  tb.End(span, verified.ok());
  span = tb.Begin("engine.optimize", root, op_id);
  Result<PlanPtr> optimized = Optimizer(engine.config().opt).Optimize(analysis->plan);
  tb.End(span, optimized.ok());
  if (!verified.ok() || !optimized.ok()) return;
  span = tb.Begin("engine.verify", root, op_id);
  verified = verifier.VerifyToStatus(*optimized, ctx, &*analysis,
                                     "after optimization");
  tb.End(span, verified.ok());
  if (!verified.ok()) return;

  const AnalysisResult resolved = *analysis;
  PreparedQuery prepared;
  prepared.source = plan;
  prepared.rewritten = plan;
  prepared.analysis = std::make_unique<AnalysisResult>(std::move(*analysis));
  prepared.optimized = *optimized;
  span = tb.Begin("engine.execute", root, op_id);
  Result<QueryResultStreamPtr> stream =
      engine.ExecutePrepared(std::move(prepared), ctx);
  std::vector<RecordBatch> batches;
  bool executed = stream.ok();
  while (executed) {
    Result<std::optional<RecordBatch>> next = (*stream)->Next();
    if (!next.ok()) executed = false;
    if (!executed || !next->has_value()) break;
    batches.push_back(std::move(**next));
  }
  tb.End(span, executed);
  if (!executed) return;
  const ExecutorStats& stats = (*stream)->stats();
  c.rows_scanned += stats.rows_scanned;
  c.batches_emitted += stats.batches_emitted;
  c.peak_bytes = std::max(c.peak_bytes, stats.peak_bytes);
  c.dispatches += stats.udf_sandbox_batches;
  c.batch_splits += stats.udf_batch_splits;

  // Frames cut the way the Connect service cuts them: kRowsPerChunk rows
  // each, one empty frame for an empty result.
  const Schema schema = (*stream)->schema();
  Result<RecordBatch> combined = Table(schema, std::move(batches)).Combine();
  if (!combined.ok()) return;
  const size_t rows = combined->num_rows();
  c.result_rows += rows;
  std::vector<RecordBatch> slices;
  for (size_t off = 0; off < rows; off += kRowsPerChunk) {
    slices.push_back(combined->Slice(off, std::min(kRowsPerChunk, rows - off)));
  }
  if (slices.empty()) slices.push_back(*combined);
  std::vector<std::vector<uint8_t>> frames;
  span = tb.Begin("columnar.ipc_encode", root, op_id);
  for (const RecordBatch& slice : slices) frames.push_back(ipc::SerializeBatch(slice));
  tb.End(span);
  c.frames += frames.size();
  for (const auto& f : frames) c.frame_bytes += f.size();

  // The wire: request and response through their tagged encodings.
  ConnectRequest request;
  request.session_id = ctx.session_id;
  request.operation_id = "trace";
  if (op.plan != nullptr) {
    request.plan_bytes = PlanToBytes(op.plan);
  } else {
    request.sql = op.sql;
  }
  ConnectResponse response;
  response.ok = true;
  response.schema = schema;
  response.total_chunks = frames.size();
  for (size_t i = 0; i < frames.size(); ++i) {
    response.inline_chunks.push_back({i, frames[i], i + 1 == frames.size()});
  }
  span = tb.Begin("connect.wire", root, op_id);
  const bool wire_ok = DecodeRequest(EncodeRequest(request)).ok() &&
                       DecodeResponse(EncodeResponse(response)).ok();
  tb.End(span, wire_ok);

  span = tb.Begin("columnar.ipc_decode", root, op_id);
  bool decoded = true;
  for (const auto& f : frames) decoded = ipc::DeserializeBatch(f).ok() && decoded;
  tb.End(span, decoded);

  // Storage: every table the analysis resolved, read whole with the token
  // it vended.
  DeltaTableFormat format(&r.platform->store());
  span = tb.Begin("storage.read", -1, op_id);
  bool read_ok = true;
  for (const auto& [table, token] : resolved.read_tokens) {
    Result<TableInfo> info = catalog.GetTable(table);
    Result<TableManifest> manifest =
        info.ok() ? format.LoadManifest(token, info->storage_root)
                  : Result<TableManifest>(info.status());
    if (!manifest.ok()) {
      read_ok = false;
      continue;
    }
    ++c.scans;
    c.parts += manifest->parts.size();
    for (const DataPart& part : manifest->parts) {
      c.part_bytes += part.num_bytes;
      c.part_rows += part.num_rows;
    }
    read_ok = format.ReadTable(token, info->storage_root).ok() && read_ok;
  }
  tb.End(span, read_ok);

  CompilePolicyRegions(resolved.plan, ctx.user, catalog.epoch(), op_id, tb);
  w.TraceExtra(r, op, op_id, tb);
}

/// A write is replayed as its parse plus the direct catalog call. Grants and
/// mask changes first undo the client's change (a `catalog.undo` root span,
/// which fails where the privilege is not held), then redo it as the child,
/// so the catalog ends as the client left it.
void DecomposeWrite(Round& r, const Op& op, int64_t root, uint64_t op_id,
                    TraceBuffer& tb) {
  int64_t span = tb.Begin("sql.parse", root, op_id);
  tb.End(span, ParseSql(op.sql).ok());
  UnityCatalog& catalog = r.platform->catalog();
  auto publish = [&](int64_t parent, auto&& call) {
    const int64_t id = tb.Begin(parent < 0 ? "catalog.undo" : "catalog.publish",
                                parent, op_id);
    tb.End(id, call().ok());
  };
  switch (op.kind) {
    case OpKind::kGrant:
    case OpKind::kRevoke: {
      Result<Privilege> privilege = PrivilegeFromName(op.privilege);
      if (!privilege.ok()) return;
      auto grant = [&] {
        return catalog.Grant("admin", op.table, *privilege, op.principal);
      };
      auto revoke = [&] {
        return catalog.Revoke("admin", op.table, *privilege, op.principal);
      };
      if (op.kind == OpKind::kGrant) {
        publish(-1, revoke);
        publish(root, grant);
      } else {
        publish(-1, grant);
        publish(root, revoke);
      }
      break;
    }
    case OpKind::kSetFilter: {
      Result<ExprPtr> expr = ParseSqlExpr(op.expr);
      if (!expr.ok()) return;
      publish(root, [&] {
        RowFilterPolicy policy;
        policy.predicate = *expr;
        return catalog.SetRowFilter("admin", op.table, std::move(policy));
      });
      break;
    }
    case OpKind::kSetMask: {
      Result<ExprPtr> expr = ParseSqlExpr(op.expr);
      if (!expr.ok()) return;
      publish(-1, [&] { return catalog.ClearColumnMasks("admin", op.table); });
      publish(root, [&] {
        ColumnMaskPolicy policy;
        policy.column = op.column;
        policy.mask_expr = *expr;
        return catalog.AddColumnMask("admin", op.table, std::move(policy));
      });
      break;
    }
    case OpKind::kRead:
      break;
  }
}

}  // namespace

Status OpenReplayCluster(Round& r) {
  LakeguardPlatform& p = *r.platform;
  r.trace_cluster = p.CreateStandardCluster();
  std::vector<std::string> principals = {r.admin.user};
  for (const Session& s : r.sessions) principals.push_back(s.user);
  for (const std::string& user : principals) {
    if (r.trace_ctx.count(user) > 0) continue;
    LG_ASSIGN_OR_RETURN(ExecutionContext ctx, p.DirectContext(r.trace_cluster, user));
    r.trace_ctx[user] = std::move(ctx);
  }
  return Status::OK();
}

int64_t RecordCall(const Op& op, uint64_t op_id, int64_t start_ns,
                   int64_t end_ns, bool ok, TraceBuffer& tb) {
  return tb.AddRoot(op.kind == OpKind::kRead ? "connect.call" : "connect.write",
                    start_ns, end_ns, op_id, ok);
}

void Decompose(Round& r, const Workload& w, const Op& op, int64_t root,
               TraceBuffer& tb) {
  const uint64_t op_id = tb.spans[static_cast<size_t>(root)].op;
  if (op.kind == OpKind::kRead) {
    DecomposeRead(r, w, op, root, op_id, tb);
  } else {
    DecomposeWrite(r, op, root, op_id, tb);
  }
}

std::vector<LayerRow> SummarizeSpans(const std::vector<const TraceBuffer*>& buffers) {
  std::map<std::string, LayerRow> rows;
  for (const TraceBuffer* tb : buffers) {
    std::vector<int64_t> child_ns(tb->spans.size(), 0);
    for (const Span& s : tb->spans) {
      if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < tb->spans.size(); ++i) {
      const Span& s = tb->spans[i];
      LayerRow& row = rows[s.name];
      row.name = s.name;
      ++row.calls;
      const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      row.total_ms += ms;
      row.self_ms += ms - static_cast<double>(child_ns[i]) / 1e6;
      if (!s.ok) ++row.failures;
    }
  }
  std::vector<LayerRow> out;
  for (auto& entry : rows) out.push_back(entry.second);
  return out;
}

std::vector<double> SelfTimesMs(const TraceBuffer& tb, const char* name) {
  std::vector<int64_t> child_ns(tb.spans.size(), 0);
  for (const Span& s : tb.spans) {
    if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::vector<double> out;
  for (size_t i = 0; i < tb.spans.size(); ++i) {
    const Span& s = tb.spans[i];
    if (std::string(s.name) != name) continue;
    out.push_back(static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6);
  }
  return out;
}

bool DumpSpans(const std::vector<std::pair<std::string, const TraceBuffer*>>& buffers,
               const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& [thread, tb] : buffers) {
    for (size_t i = 0; i < tb->spans.size(); ++i) {
      const Span& s = tb->spans[i];
      std::fprintf(f,
                   "{\"thread\":\"%s\",\"op\":%llu,\"span\":%zu,\"parent\":%lld,"
                   "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,\"ok\":%s}\n",
                   thread.c_str(), static_cast<unsigned long long>(s.op), i,
                   static_cast<long long>(s.parent), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.ok ? "true" : "false");
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace govbench
}  // namespace lakeguard
