// The four workloads. Each generates its rows, setup statements and
// operations once per process from the seed; every round replays them on a
// fresh platform. README.md records why each workload exists.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <variant>

#include "common/sha256.h"
#include "sql/parser.h"
#include "udf/builder.h"
#include "udf/verifier/cache.h"
#include "udf/vm.h"
#include "workload.h"

namespace lakeguard {
namespace govbench {

namespace {

const char* const kRegions[] = {"US", "EU", "APAC"};

std::string FilterDef(const std::string& region) {
  return "region = '" + region + "' OR IS_ACCOUNT_GROUP_MEMBER('global')";
}

/// Renders rows [begin, end) as one INSERT statement.
template <typename T, typename F>
std::string InsertSql(const std::string& table, const std::vector<T>& rows,
                      size_t begin, size_t end, F render) {
  std::string sql = "INSERT INTO " + table + " VALUES ";
  for (size_t i = begin; i < end; ++i) {
    if (i > begin) sql += ", ";
    sql += '(';
    sql += render(rows[i]);
    sql += ')';
  }
  return sql;
}

std::string SalesTuple(const Row& r) {
  return std::to_string(r.id) + ", '" + r.region + "', '" + r.seller + "', " +
         std::to_string(r.category) + ", " + std::to_string(r.amount);
}

constexpr const char* kSalesColumns =
    "(id BIGINT, region STRING, seller STRING, category BIGINT, amount BIGINT)";

template <typename T>
void Shuffle(std::vector<T>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.Next() % i]);
  }
}

/// Groups rows by a key, counting them and summing `amount`.
template <typename K>
void DigestGroups(const std::map<K, std::pair<int64_t, int64_t>>& groups,
                  DigestBuilder* d) {
  for (const auto& [key, agg] : groups) {
    if constexpr (std::is_same_v<K, std::string>) {
      d->Str(key);
    } else {
      d->Int(key);
    }
    d->Int(agg.first).Int(agg.second);
    d->EndRow();
  }
}

/// The rows of `rows` visible under `view` that satisfy `keep`, ordered by
/// amount descending then id ascending, cut at `limit`.
template <typename F>
std::vector<const Row*> TopByAmount(const std::vector<Row>& rows,
                                    const GovView& view, F keep,
                                    size_t limit) {
  std::vector<const Row*> sel;
  for (const Row& r : rows) {
    if (view.Visible(r) && keep(r)) sel.push_back(&r);
  }
  auto before = [](const Row* a, const Row* b) {
    return a->amount != b->amount ? a->amount > b->amount : a->id < b->id;
  };
  const size_t n = std::min(limit, sel.size());
  std::partial_sort(sel.begin(), sel.begin() + static_cast<std::ptrdiff_t>(n),
                    sel.end(), before);
  sel.resize(n);
  return sel;
}

PlanPtr ParsePlan(const std::string& sql) {
  auto parsed = ParseSql(sql);
  if (!parsed.ok()) return nullptr;
  auto* select = std::get_if<SelectStatement>(&*parsed);
  return select == nullptr ? nullptr : select->plan;
}

struct SessionSpec {
  std::string user;
  bool gateway = false;
};

/// Shared shape of the four workloads: a declarative setup (principals, load
/// statements, governance writes, sessions, warm-up operations) that
/// `Setup` replays on a fresh platform.
class GovernedWorkload : public Workload {
 public:
  Status Setup(Round& r) const override;

 protected:
  virtual bool durable() const { return false; }
  virtual Status RegisterFunctions(Round&) const { return Status::OK(); }

  int AddClass(const std::string& name, bool write) {
    classes_.push_back({name, write});
    return static_cast<int>(classes_.size()) - 1;
  }
  /// Write classes: the admin's governance writes (timed in
  /// governance_churn only).
  void AddWriteClasses() {
    grant_cls_ = AddClass("grant", true);
    alter_cls_ = AddClass("alter", true);
  }

  Op GrantOp(const std::string& privilege, const std::string& kind,
             const std::string& securable, const std::string& principal,
             bool revoke) const {
    Op op;
    op.kind = revoke ? OpKind::kRevoke : OpKind::kGrant;
    op.cls = grant_cls_;
    op.session = -1;
    op.sql = std::string(revoke ? "REVOKE " : "GRANT ") + privilege + " ON " +
             kind + " " + securable + (revoke ? " FROM " : " TO ") + principal;
    op.table = securable;
    op.privilege = privilege;
    op.principal = principal;
    return op;
  }
  Op FilterOp(const std::string& table, const std::string& expr) const {
    Op op;
    op.kind = OpKind::kSetFilter;
    op.cls = alter_cls_;
    op.session = -1;
    op.sql = "ALTER TABLE " + table + " SET ROW FILTER (" + expr + ")";
    op.table = table;
    op.expr = expr;
    return op;
  }
  Op MaskOp(const std::string& table, const std::string& column) const {
    Op op;
    op.kind = OpKind::kSetMask;
    op.cls = alter_cls_;
    op.session = -1;
    op.sql = "ALTER TABLE " + table + " ALTER COLUMN " + column +
             " SET MASK (MASK(" + column + "))";
    op.table = table;
    op.column = column;
    op.expr = "MASK(" + column + ")";
    return op;
  }
  /// USE CATALOG main and USE SCHEMA <schema_> for every principal.
  void GrantNamespace(const std::vector<std::string>& principals) {
    for (const std::string& p : principals) {
      setup_writes_.push_back(GrantOp("USE CATALOG", "CATALOG", "main", p, false));
      setup_writes_.push_back(GrantOp("USE SCHEMA", "SCHEMA", schema_, p, false));
    }
  }
  /// CREATE TABLE plus INSERTs of at most `chunk` rows each.
  template <typename T, typename F>
  void LoadTable(const std::string& table, const std::string& columns,
                 const std::vector<T>& rows, size_t chunk, F render) {
    load_.push_back("CREATE TABLE " + table + " " + columns);
    for (size_t begin = 0; begin < rows.size(); begin += chunk) {
      load_.push_back(InsertSql(table, rows, begin,
                                std::min(rows.size(), begin + chunk), render));
    }
  }

  std::string schema_;
  std::vector<std::string> groups_;
  std::vector<std::pair<std::string, std::vector<std::string>>> users_;
  std::vector<std::string> load_;
  std::vector<SessionSpec> sessions_;
  std::vector<Op> warmup_;
  int grant_cls_ = -1;
  int alter_cls_ = -1;
};

Status GovernedWorkload::Setup(Round& r) const {
  LakeguardPlatform::Options options;
  options.use_simulated_clock = false;
  options.sandbox_cold_start_micros = 0;
  options.gateway_config.backend_cold_start_micros = 0;
  if (durable()) {
    static std::atomic<int> rounds{0};
    r.durable_root = r.work_dir + "/durable-" + std::to_string(::getpid()) +
                     "-" + std::to_string(rounds++);
    std::error_code ec;
    std::filesystem::remove_all(r.durable_root, ec);
    std::filesystem::create_directories(r.durable_root, ec);
    options.durable_root = r.durable_root;
  }
  r.platform = std::make_unique<LakeguardPlatform>(options);
  LakeguardPlatform& p = *r.platform;
  LG_RETURN_IF_ERROR(p.durability_status());
  LG_RETURN_IF_ERROR(p.AddUser("admin"));
  p.AddMetastoreAdmin("admin");
  p.RegisterToken("tok-admin", "admin");
  LG_RETURN_IF_ERROR(p.catalog().CreateCatalog("admin", "main"));
  LG_RETURN_IF_ERROR(p.catalog().CreateSchema("admin", schema_));
  for (const std::string& g : groups_) LG_RETURN_IF_ERROR(p.AddGroup(g));
  for (const auto& [user, groups] : users_) {
    LG_RETURN_IF_ERROR(p.AddUser(user));
    p.RegisterToken("tok-" + user, user);
    for (const std::string& g : groups) {
      LG_RETURN_IF_ERROR(p.AddUserToGroup(user, g));
    }
  }
  r.cluster = p.CreateStandardCluster();
  LG_ASSIGN_OR_RETURN(ConnectClient admin, p.Connect(r.cluster, "tok-admin"));
  r.admin.user = "admin";
  r.admin.client.emplace(std::move(admin));

  for (const std::string& load : load_) {
    ++r.tally.attempted;
    Result<Table> loaded = r.admin.client->Sql(load);
    if (!loaded.ok()) {
      ++r.tally.failed;
      return loaded.status().WithContext("setup statement failed");
    }
  }
  LG_RETURN_IF_ERROR(RegisterFunctions(r));

  auto wal = [&] {
    return p.catalog_store() != nullptr ? p.catalog_store()->log().stats()
                                        : DurableLogStats();
  };
  const DurableLogStats wal_before = wal();
  for (size_t i = 0; i < setup_writes_.size(); ++i) {
    const Op& op = setup_writes_[i];
    const int64_t start = NowNs();
    Result<Table> written = Execute(r, op);
    const int64_t end = NowNs();
    const bool ok = CheckResult(op, written, &r.tally);
    if (r.setup_trace != nullptr) RecordCall(op, i, start, end, ok, *r.setup_trace);
    if (!ok) return Status::Internal("setup write failed: " + op.sql);
  }
  const DurableLogStats wal_after = wal();
  r.setup_wal.writes = setup_writes_.size();
  r.setup_wal.bytes = wal_after.bytes_appended - wal_before.bytes_appended;
  r.setup_wal.syncs = wal_after.syncs - wal_before.syncs;

  for (const SessionSpec& spec : sessions_) {
    Session s;
    s.user = spec.user;
    if (spec.gateway) {
      LG_ASSIGN_OR_RETURN(s.gateway_id,
                          p.gateway().OpenSession("tok-" + spec.user));
    } else {
      LG_ASSIGN_OR_RETURN(ConnectClient client,
                          p.Connect(r.cluster, "tok-" + spec.user));
      s.client.emplace(std::move(client));
    }
    r.sessions.push_back(std::move(s));
  }
  for (const Op& op : warmup_) {
    Result<Table> result = Execute(r, op);
    if (!CheckResult(op, result, &r.tally)) {
      return Status::Internal("warm-up operation failed: " + op.sql);
    }
  }
  return Status::OK();
}

// ---- interactive ------------------------------------------------------------

/// 4 tenant sessions on 4 threads through the gateway; 16 small governed
/// tables; point lookup, top-k, small GROUP BY and a join to a 100-row
/// dimension.
class InteractiveWorkload : public GovernedWorkload {
 public:
  static constexpr size_t kTables = 16;
  static constexpr size_t kRows = 1000;
  static constexpr size_t kTenants = 4;
  static constexpr size_t kOpsPerThread = 300;

  void Generate(uint64_t seed) override {
    Rng rng(seed);
    schema_ = "main.s";
    point_ = AddClass("point", false);
    topk_ = AddClass("topk", false);
    group_ = AddClass("group", false);
    join_ = AddClass("join", false);
    AddWriteClasses();
    for (size_t t = 0; t < kTables; ++t) {
      tables_.push_back(GenRows(rng, kRows, 100));
    }
    dim_ = GenDim(rng, 100, 10);

    groups_ = {"global"};
    std::vector<std::string> tenants;
    for (size_t i = 0; i < kTenants; ++i) {
      tenants.push_back("tenant" + std::to_string(i));
      // Half of the tenants see every region.
      users_.push_back({tenants.back(), i < kTenants / 2
                                            ? std::vector<std::string>{"global"}
                                            : std::vector<std::string>{}});
      sessions_.push_back({tenants.back(), /*gateway=*/true});
    }
    for (size_t t = 0; t < kTables; ++t) {
      LoadTable(Table(t), kSalesColumns, tables_[t], kRows, SalesTuple);
    }
    LoadTable("main.s.dim", "(id BIGINT, name STRING, owner STRING)", dim_,
              dim_.size(), [](const DimRow& d) {
                return std::to_string(d.id) + ", '" + d.name + "', '" +
                       d.owner + "'";
              });
    GrantNamespace(tenants);
    for (size_t t = 0; t < kTables; ++t) {
      setup_writes_.push_back(FilterOp(Table(t), FilterDef("US")));
      setup_writes_.push_back(MaskOp(Table(t), "seller"));
      for (const std::string& u : tenants) {
        setup_writes_.push_back(GrantOp("SELECT", "TABLE", Table(t), u, false));
      }
    }
    for (const std::string& u : tenants) {
      setup_writes_.push_back(GrantOp("SELECT", "TABLE", "main.s.dim", u, false));
    }
    // Warm-up: every session touches every table once, cycling classes, so
    // each (table, principal) policy program is compiled before timing.
    for (size_t s = 0; s < kTenants; ++s) {
      for (size_t t = 0; t < kTables; ++t) {
        warmup_.push_back(MakeOp(rng, static_cast<int>(t % 4), t, s));
      }
    }
    ops_.assign(kTenants, {});
    for (size_t s = 0; s < kTenants; ++s) {
      for (size_t i = 0; i < kOpsPerThread / 4; ++i) {
        std::vector<int> block = {point_, topk_, group_, join_};
        Shuffle(block, rng);
        for (int cls : block) {
          ops_[s].push_back(MakeOp(rng, cls, rng.Next() % kTables, s));
        }
      }
    }
  }

 private:
  static std::string Table(size_t t) { return "main.s.t" + std::to_string(t); }

  Op MakeOp(Rng& rng, int cls, size_t table, size_t session) const {
    const std::vector<Row>& rows = tables_[table];
    Op op;
    op.cls = cls;
    op.session = static_cast<int>(session);
    op.view.rows = &rows;
    op.view.global = session < kTenants / 2;
    op.work_rows = rows.size();
    const std::string t = Table(table);
    DigestBuilder d;
    if (cls == point_) {
      op.param = rng.Uniform(0, static_cast<int64_t>(kRows) - 1);
      op.sql = "SELECT id, region, seller, amount FROM " + t +
               " WHERE id = " + std::to_string(op.param);
      for (const Row& r : rows) {
        if (r.id == op.param && op.view.Visible(r)) {
          d.Int(r.id).Str(r.region).Str(Mask(r.seller)).Int(r.amount);
          d.EndRow();
        }
      }
    } else if (cls == topk_) {
      op.param = rng.Uniform(10, 50);
      op.sql = "SELECT id, seller, amount FROM " + t + " WHERE category < " +
               std::to_string(op.param) + " ORDER BY amount DESC, id LIMIT 10";
      const int64_t c = op.param;
      for (const Row* r : TopByAmount(rows, op.view,
                                      [c](const Row& x) { return x.category < c; },
                                      10)) {
        d.Int(r->id).Str(Mask(r->seller)).Int(r->amount);
        d.EndRow();
      }
    } else {
      op.param = rng.Uniform(0, 500);
      const bool join = cls == join_;
      op.sql = join ? "SELECT d.name, COUNT(*) AS n, SUM(f.amount) AS total "
                      "FROM " + t + " f JOIN main.s.dim d ON f.category = d.id "
                      "WHERE f.amount > " + std::to_string(op.param) +
                      " GROUP BY d.name"
                    : "SELECT category, COUNT(*) AS n, SUM(amount) AS total "
                      "FROM " + t + " WHERE amount > " +
                      std::to_string(op.param) + " GROUP BY category";
      std::map<std::string, std::pair<int64_t, int64_t>> by_name;
      std::map<int64_t, std::pair<int64_t, int64_t>> by_category;
      for (const Row& r : rows) {
        if (!op.view.Visible(r) || r.amount <= op.param) continue;
        auto& agg = join ? by_name[dim_[static_cast<size_t>(r.category)].name]
                         : by_category[r.category];
        ++agg.first;
        agg.second += r.amount;
      }
      if (join) {
        DigestGroups(by_name, &d);
        op.work_rows += dim_.size();
      } else {
        DigestGroups(by_category, &d);
      }
    }
    op.expect = d.digest();
    return op;
  }

  std::vector<std::vector<Row>> tables_;
  std::vector<DimRow> dim_;
  int point_ = 0, topk_ = 0, group_ = 0, join_ = 0;
};

// ---- analytic ---------------------------------------------------------------

/// One thread, two sessions (a `global` and a US-only principal) over a
/// 200k-row governed fact table and a 1k-row dimension with a masked column.
/// Half of the queries are sent as DataFrame plans.
class AnalyticWorkload : public GovernedWorkload {
 public:
  static constexpr size_t kFactRows = 200'000;
  static constexpr size_t kDimRows = 1000;
  static constexpr size_t kInsertRows = 10'000;
  static constexpr size_t kBlocks = 2;  // 8 operations each

  void Generate(uint64_t seed) override {
    Rng rng(seed);
    schema_ = "main.a";
    scan_ = AddClass("scan", false);
    agg_ = AddClass("agg", false);
    join_ = AddClass("join", false);
    topk_ = AddClass("topk", false);
    AddWriteClasses();
    fact_ = GenRows(rng, kFactRows, static_cast<int64_t>(kDimRows));
    dim_ = GenDim(rng, kDimRows, 50);

    groups_ = {"global"};
    users_ = {{"analyst_global", {"global"}}, {"analyst_us", {}}};
    sessions_ = {{"analyst_global", false}, {"analyst_us", false}};
    LoadTable("main.a.fact", kSalesColumns, fact_, kInsertRows, SalesTuple);
    LoadTable("main.a.dim", "(id BIGINT, name STRING, owner STRING)", dim_,
              kDimRows, [](const DimRow& d) {
                return std::to_string(d.id) + ", '" + d.name + "', '" +
                       d.owner + "'";
              });
    GrantNamespace({"analyst_global", "analyst_us"});
    setup_writes_.push_back(FilterOp("main.a.fact", FilterDef("US")));
    setup_writes_.push_back(MaskOp("main.a.fact", "seller"));
    setup_writes_.push_back(MaskOp("main.a.dim", "owner"));
    for (const char* u : {"analyst_global", "analyst_us"}) {
      setup_writes_.push_back(GrantOp("SELECT", "TABLE", "main.a.fact", u, false));
      setup_writes_.push_back(GrantOp("SELECT", "TABLE", "main.a.dim", u, false));
    }
    for (int s = 0; s < 2; ++s) {
      for (int cls : {scan_, agg_, join_, topk_}) {
        warmup_.push_back(MakeOp(rng, cls, s, false));
      }
    }
    ops_.assign(1, {});
    for (size_t b = 0; b < kBlocks; ++b) {
      std::vector<std::pair<int, int>> block;
      for (int cls : {scan_, agg_, join_, topk_}) {
        for (int s = 0; s < 2; ++s) block.push_back({cls, s});
      }
      Shuffle(block, rng);
      for (const auto& [cls, s] : block) {
        const bool as_plan = (b + static_cast<size_t>(cls + s)) % 2 == 1;
        ops_[0].push_back(MakeOp(rng, cls, s, as_plan));
      }
    }
  }

 private:
  Op MakeOp(Rng& rng, int cls, int session, bool as_plan) const {
    Op op;
    op.cls = cls;
    op.session = session;
    op.view.rows = &fact_;
    op.view.global = session == 0;
    op.work_rows = fact_.size();
    DigestBuilder d;
    if (cls == scan_ || cls == topk_) {
      const bool scan = cls == scan_;
      op.param = scan ? rng.Uniform(450, 550) : rng.Uniform(100, 900);
      const int64_t x = op.param;
      if (scan) {
        op.sql = "SELECT id, seller, amount FROM main.a.fact WHERE amount > " +
                 std::to_string(x);
        for (const Row& r : fact_) {
          if (op.view.Visible(r) && r.amount > x) {
            d.Int(r.id).Str(Mask(r.seller)).Int(r.amount);
            d.EndRow();
          }
        }
      } else {
        op.sql = "SELECT id, seller, amount FROM main.a.fact WHERE category < " +
                 std::to_string(x) + " ORDER BY amount DESC, id LIMIT 100";
        for (const Row* r :
             TopByAmount(fact_, op.view,
                         [x](const Row& row) { return row.category < x; }, 100)) {
          d.Int(r->id).Str(Mask(r->seller)).Int(r->amount);
          d.EndRow();
        }
      }
    } else {
      op.param = rng.Uniform(0, 100);
      const bool join = cls == join_;
      op.sql = join ? "SELECT d.owner, COUNT(*) AS n, SUM(f.amount) AS total "
                      "FROM main.a.fact f JOIN main.a.dim d ON f.category = d.id "
                      "WHERE f.amount > " + std::to_string(op.param) +
                      " GROUP BY d.owner"
                    : "SELECT category, COUNT(*) AS n, SUM(amount) AS total "
                      "FROM main.a.fact WHERE amount > " +
                      std::to_string(op.param) + " GROUP BY category";
      std::map<std::string, std::pair<int64_t, int64_t>> by_owner;
      std::map<int64_t, std::pair<int64_t, int64_t>> by_category;
      for (const Row& r : fact_) {
        if (!op.view.Visible(r) || r.amount <= op.param) continue;
        auto& agg = join ? by_owner[Mask(dim_[static_cast<size_t>(r.category)].owner)]
                         : by_category[r.category];
        ++agg.first;
        agg.second += r.amount;
      }
      if (join) {
        DigestGroups(by_owner, &d);
      } else {
        DigestGroups(by_category, &d);
      }
    }
    if (as_plan) op.plan = ParsePlan(op.sql);
    op.expect = d.digest();
    return op;
  }

  std::vector<Row> fact_;
  std::vector<DimRow> dim_;
  int scan_ = 0, agg_ = 0, join_ = 0, topk_ = 0;
};

// ---- udf --------------------------------------------------------------------

/// The paper's Table 2 pair in one session: five sum UDFs fused into one
/// sandbox over 20k rows, and a 100-iteration SHA-256 UDF over 500 rows.
class UdfWorkload : public GovernedWorkload {
 public:
  static constexpr size_t kNumRows = 20'000;
  static constexpr size_t kTextRows = 500;
  static constexpr size_t kSumUdfs = 5;
  static constexpr int64_t kHashIterations = 100;
  static constexpr size_t kPairs = 12;

  void Generate(uint64_t seed) override {
    Rng rng(seed);
    schema_ = "main.u";
    simple_ = AddClass("simple", false);
    hash_ = AddClass("hash", false);
    AddWriteClasses();
    // nums: (id, region, a, b) with a and b kept in category and amount.
    nums_.resize(kNumRows);
    for (size_t i = 0; i < kNumRows; ++i) {
      nums_[i].id = static_cast<int64_t>(i);
      nums_[i].region = kRegions[rng.Next() % 3];
      nums_[i].category = rng.Uniform(0, 1'000'000);
      nums_[i].amount = rng.Uniform(0, 1'000'000);
    }
    // texts: (id, region, s) with s kept in seller.
    texts_.resize(kTextRows);
    for (size_t i = 0; i < kTextRows; ++i) {
      texts_[i].id = static_cast<int64_t>(i);
      texts_[i].region = kRegions[rng.Next() % 3];
      texts_[i].seller = rng.Word(16);
      std::string h = texts_[i].seller;
      for (int64_t k = 0; k < kHashIterations; ++k) h = Sha256::HexDigest(h);
      hashes_.push_back(h);
    }

    groups_ = {"global"};
    users_ = {{"data_scientist", {"global"}}};
    sessions_ = {{"data_scientist", false}};
    LoadTable("main.u.nums", "(id BIGINT, region STRING, a BIGINT, b BIGINT)",
              nums_, 10'000, [](const Row& r) {
                return std::to_string(r.id) + ", '" + r.region + "', " +
                       std::to_string(r.category) + ", " +
                       std::to_string(r.amount);
              });
    LoadTable("main.u.texts", "(id BIGINT, region STRING, s STRING)", texts_,
              kTextRows, [](const Row& r) {
                return std::to_string(r.id) + ", '" + r.region + "', '" +
                       r.seller + "'";
              });
    GrantNamespace({"data_scientist"});
    for (const char* t : {"main.u.nums", "main.u.texts"}) {
      setup_writes_.push_back(FilterOp(t, FilterDef("US")));
      setup_writes_.push_back(GrantOp("SELECT", "TABLE", t, "data_scientist", false));
    }
    for (const std::string& fn : FunctionNames()) {
      setup_writes_.push_back(
          GrantOp("EXECUTE", "FUNCTION", fn, "data_scientist", false));
    }
    warmup_.push_back(MakeOp(rng, simple_));
    warmup_.push_back(MakeOp(rng, hash_));
    ops_.assign(1, {});
    for (size_t i = 0; i < kPairs; ++i) {
      std::vector<int> pair = {simple_, hash_};
      Shuffle(pair, rng);
      for (int cls : pair) ops_[0].push_back(MakeOp(rng, cls));
    }
  }

  void TraceExtra(Round& r, const Op& op, uint64_t op_id,
                  TraceBuffer& tb) const override;

 protected:
  // The one gated workload with a durable catalog: its setup's writes
  // measure the catalog WAL, which governance_churn loads but is not gated.
  bool durable() const override { return true; }
  Status RegisterFunctions(Round& r) const override {
    const std::vector<std::string> names = FunctionNames();
    for (size_t i = 0; i < names.size(); ++i) {
      FunctionInfo fn;
      fn.full_name = names[i];
      const bool sum = i < kSumUdfs;
      fn.num_args = sum ? 2 : 1;
      fn.return_type = sum ? TypeKind::kInt64 : TypeKind::kString;
      fn.body = sum ? canned::SumUdf() : canned::HashUdf(kHashIterations);
      LG_RETURN_IF_ERROR(r.platform->catalog().CreateFunction("admin", fn));
    }
    return Status::OK();
  }

 private:
  static std::vector<std::string> FunctionNames() {
    std::vector<std::string> names;
    for (size_t i = 0; i < kSumUdfs; ++i) {
      names.push_back("main.u.u" + std::to_string(i));
    }
    names.push_back("main.u.h0");
    return names;
  }

  Op MakeOp(Rng& rng, int cls) const {
    Op op;
    op.cls = cls;
    op.session = 0;
    op.view.global = true;
    DigestBuilder d;
    if (cls == simple_) {
      op.param = rng.Uniform(0, 99);
      op.view.rows = &nums_;
      op.sql = "SELECT id";
      for (size_t i = 0; i < kSumUdfs; ++i) {
        op.sql += ", main.u.u" + std::to_string(i) + "(a, b) AS r" +
                  std::to_string(i);
      }
      op.sql += " FROM main.u.nums WHERE id >= " + std::to_string(op.param);
      for (const Row& r : nums_) {
        if (r.id < op.param) continue;
        d.Int(r.id);
        for (size_t i = 0; i < kSumUdfs; ++i) d.Int(r.category + r.amount);
        d.EndRow();
        ++op.work_rows;
      }
    } else {
      op.param = rng.Uniform(0, 9);
      op.view.rows = &texts_;
      op.sql = "SELECT id, main.u.h0(s) AS h FROM main.u.texts WHERE id >= " +
               std::to_string(op.param);
      for (const Row& r : texts_) {
        if (r.id < op.param) continue;
        d.Int(r.id).Str(hashes_[static_cast<size_t>(r.id)]);
        d.EndRow();
        ++op.work_rows;
      }
    }
    op.expect = d.digest();
    return op;
  }

  std::vector<Row> nums_;
  std::vector<Row> texts_;
  std::vector<std::string> hashes_;
  int simple_ = 0, hash_ = 0;
};

void UdfWorkload::TraceExtra(Round& r, const Op& op, uint64_t op_id,
                             TraceBuffer& tb) const {
  const bool simple = op.cls == simple_;
  const std::vector<Row>& rows = simple ? nums_ : texts_;
  // The invocations and argument batches the executor ships: one column per
  // distinct argument, at most batch_size rows per dispatch.
  std::vector<UdfInvocation> invocations;
  for (size_t i = 0; i < (simple ? kSumUdfs : 1); ++i) {
    UdfInvocation inv;
    inv.bytecode = simple ? canned::SumUdf() : canned::HashUdf(kHashIterations);
    inv.arg_indices = simple ? std::vector<size_t>{0, 1} : std::vector<size_t>{0};
    inv.result_name = "__udf" + std::to_string(i);
    inv.result_type = simple ? TypeKind::kInt64 : TypeKind::kString;
    invocations.push_back(std::move(inv));
  }
  const Schema schema =
      simple ? Schema(std::vector<FieldDef>{{"a0", TypeKind::kInt64, true},
                                            {"a1", TypeKind::kInt64, true}})
             : Schema(std::vector<FieldDef>{{"a0", TypeKind::kString, true}});
  const size_t batch_size = r.trace_cluster->engine->config().exec.batch_size;
  std::vector<RecordBatch> batches;
  for (size_t begin = static_cast<size_t>(op.param); begin < rows.size();
       begin += batch_size) {
    const size_t end = std::min(rows.size(), begin + batch_size);
    std::vector<Column> columns;
    if (simple) {
      ColumnBuilder a(TypeKind::kInt64), b(TypeKind::kInt64);
      for (size_t i = begin; i < end; ++i) {
        a.AppendInt(rows[i].category);
        b.AppendInt(rows[i].amount);
      }
      columns.push_back(a.Finish());
      columns.push_back(b.Finish());
    } else {
      ColumnBuilder s(TypeKind::kString);
      for (size_t i = begin; i < end; ++i) s.AppendString(rows[i].seller);
      columns.push_back(s.Finish());
    }
    batches.emplace_back(schema, std::move(columns));
  }
  ++tb.counts.udf_ops;

  Dispatcher& dispatcher = r.trace_cluster->cluster->driver_host().dispatcher();
  int64_t span = tb.Begin("sandbox.dispatch", -1, op_id);
  bool ok = true;
  for (const RecordBatch& batch : batches) {
    ok = dispatcher
             .Dispatch("govbench-trace", "admin", SandboxPolicy::LockedDown(),
                       batch, invocations)
             .ok() &&
         ok;
  }
  tb.End(span, ok);

  DenyAllHost host;
  std::vector<Value> args;
  span = tb.Begin("udf.vm", -1, op_id);
  ok = true;
  for (const RecordBatch& batch : batches) {
    for (size_t row = 0; row < batch.num_rows(); ++row) {
      for (const UdfInvocation& inv : invocations) {
        args.clear();
        for (size_t idx : inv.arg_indices) {
          args.push_back(batch.column(idx).GetValue(row));
        }
        ok = ExecuteUdf(inv.bytecode, args, &host).ok() && ok;
      }
    }
    tb.counts.vm_rows += batch.num_rows();
  }
  tb.End(span, ok);

  span = tb.Begin("udf.verify_cached", -1, op_id);
  bool hit = false;
  ok = VerifiedProgramCache::Global()
           ->GetOrVerify(invocations.front().bytecode, &hit)
           .ok();
  tb.End(span, ok && hit);
}

// ---- governance_churn -------------------------------------------------------

/// One thread: an admin session plus three analyst sessions over a durable
/// 256-table catalog. Each cycle on a table T grants or revokes SELECT to a
/// principal that never reads, toggles T's row filter between two
/// definitions, and has every analyst read T once.
class ChurnWorkload : public GovernedWorkload {
 public:
  static constexpr size_t kTables = 256;
  static constexpr size_t kRows = 200;
  static constexpr size_t kIdle = 5;  // principals that hold grants, never read
  static constexpr size_t kAnalysts = 3;
  static constexpr size_t kCycles = 150;

  void Generate(uint64_t seed) override {
    Rng rng(seed);
    schema_ = "main.c";
    read_ = AddClass("read", false);
    AddWriteClasses();
    for (size_t t = 0; t < kTables; ++t) tables_.push_back(GenRows(rng, kRows, 20));

    groups_ = {"global", "analysts"};
    std::vector<std::string> principals = {"analysts"};
    for (size_t a = 0; a < kAnalysts; ++a) {
      const std::string user = "analyst" + std::to_string(a);
      users_.push_back({user, a == 0 ? std::vector<std::string>{"global", "analysts"}
                                     : std::vector<std::string>{"analysts"}});
      sessions_.push_back({user, false});
    }
    for (size_t i = 0; i < kIdle; ++i) {
      users_.push_back({Idle(i), {}});
      principals.push_back(Idle(i));
    }
    for (size_t t = 0; t < kTables; ++t) {
      LoadTable(Table(t), kSalesColumns, tables_[t], kRows, SalesTuple);
    }
    GrantNamespace(principals);
    for (size_t t = 0; t < kTables; ++t) {
      setup_writes_.push_back(FilterOp(Table(t), FilterDef("US")));
      setup_writes_.push_back(MaskOp(Table(t), "seller"));
      setup_writes_.push_back(GrantOp("SELECT", "TABLE", Table(t), "analysts", false));
    }
    // Warm-up leaves the catalog as setup left it: grant then revoke, and
    // re-set table 0's row filter to the definition it already has.
    warmup_.push_back(GrantOp("SELECT", "TABLE", Table(0), Idle(0), false));
    warmup_.push_back(GrantOp("SELECT", "TABLE", Table(0), Idle(0), true));
    warmup_.push_back(FilterOp(Table(0), FilterDef("US")));
    for (size_t a = 0; a < kAnalysts; ++a) {
      warmup_.push_back(ReadOp(rng, 0, a, "US"));
    }

    std::vector<bool> granted(kTables * kIdle, false);
    std::vector<bool> eu(kTables, false);
    ops_.assign(1, {});
    for (size_t c = 0; c < kCycles; ++c) {
      const size_t t = rng.Next() % kTables;
      const size_t i = rng.Next() % kIdle;
      const size_t key = t * kIdle + i;
      ops_[0].push_back(GrantOp("SELECT", "TABLE", Table(t), Idle(i), granted[key]));
      granted[key] = !granted[key];
      eu[t] = !eu[t];
      const std::string region = eu[t] ? "EU" : "US";
      ops_[0].push_back(FilterOp(Table(t), FilterDef(region)));
      for (size_t a = 0; a < kAnalysts; ++a) {
        ops_[0].push_back(ReadOp(rng, t, a, region));
      }
    }
  }

 protected:
  bool durable() const override { return true; }

 private:
  static std::string Table(size_t t) { return "main.c.t" + std::to_string(t); }
  static std::string Idle(size_t i) { return "idle" + std::to_string(i); }

  /// One analyst's read of table `t` under the row filter of `region`.
  Op ReadOp(Rng& rng, size_t t, size_t analyst, const std::string& region) const {
    Op op;
    op.cls = read_;
    op.session = static_cast<int>(analyst);
    op.view.rows = &tables_[t];
    op.view.visible_region = region;
    op.view.global = analyst == 0;
    op.work_rows = kRows;
    op.param = rng.Uniform(0, 500);
    op.sql = "SELECT id, region, seller, amount FROM " + Table(t) +
             " WHERE amount > " + std::to_string(op.param);
    DigestBuilder d;
    for (const Row& r : tables_[t]) {
      if (op.view.Visible(r) && r.amount > op.param) {
        d.Int(r.id).Str(r.region).Str(Mask(r.seller)).Int(r.amount);
        d.EndRow();
      }
    }
    op.expect = d.digest();
    return op;
  }

  std::vector<std::vector<Row>> tables_;
  int read_ = 0;
};

}  // namespace

Round::~Round() {
  // Clients before the services they talk to; the durable root last.
  sessions.clear();
  admin.client.reset();
  trace_ctx.clear();
  platform.reset();
  if (!durable_root.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(durable_root, ec);
  }
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "interactive") return std::make_unique<InteractiveWorkload>();
  if (name == "analytic") return std::make_unique<AnalyticWorkload>();
  if (name == "udf") return std::make_unique<UdfWorkload>();
  if (name == "governance_churn") return std::make_unique<ChurnWorkload>();
  return nullptr;
}

Result<Table> Execute(Round& r, const Op& op) {
  Session& s = op.session < 0 ? r.admin
                              : r.sessions[static_cast<size_t>(op.session)];
  if (!s.gateway_id.empty()) {
    return r.platform->gateway().ExecuteSql(s.gateway_id, op.sql);
  }
  if (op.plan != nullptr) return s.client->ExecutePlanRemote(op.plan);
  return s.client->Sql(op.sql);
}

bool CheckResult(const Op& op, const Result<Table>& result, Tally* tally) {
  ++tally->attempted;
  std::string why;
  if (!result.ok()) {
    why = result.status().ToString();
  } else if (op.kind == OpKind::kRead) {
    const size_t violations = CountViolations(*result, op.view);
    if (violations > 0) {
      ++tally->violations;
      why = std::to_string(violations) + " row(s) break governance";
    } else {
      const Digest got = DigestTable(*result);
      if (!(got == op.expect)) {
        why = "result differs from the reference: " + std::to_string(got.rows) +
              " rows, expected " + std::to_string(op.expect.rows);
      }
    }
  }
  if (why.empty()) return true;
  if (tally->failed++ < 5) {
    std::fprintf(stderr, "failed operation: %s\n  sql: %.200s\n", why.c_str(),
                 op.sql.c_str());
  }
  return false;
}

}  // namespace govbench
}  // namespace lakeguard
