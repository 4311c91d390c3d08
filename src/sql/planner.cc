#include "sql/planner.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "common/macros.h"
#include "common/string_util.h"
#include "dag/dag_builder.h"
#include "exec/bound_expr.h"
#include "sql/parser.h"

namespace swift {

namespace {

// Why `expr` does not resolve in `schema` (unknown or ambiguous column),
// or OK when every column it references does.
Status ResolveStatus(const ExprPtr& expr, const Schema& schema) {
  std::vector<std::string> cols;
  expr->CollectColumns(&cols);
  for (const std::string& c : cols) {
    auto idx = schema.IndexOf(c);
    if (!idx.ok()) return idx.status();
  }
  return Status::OK();
}

bool Resolves(const ExprPtr& expr, const Schema& schema) {
  return ResolveStatus(expr, schema).ok();
}

// Output column name of a SELECT item.
std::string ItemName(const SelectItem& item, std::size_t index) {
  if (!item.alias.empty()) return item.alias;
  if (item.window.has_value()) {
    switch (item.window->func) {
      case WindowFunc::kRowNumber:
        return "row_number" + std::to_string(index);
      case WindowFunc::kRank:
        return "rank" + std::to_string(index);
      case WindowFunc::kSum:
        return "winsum" + std::to_string(index);
    }
  }
  const ExprPtr& e = item.agg.has_value() ? item.agg_arg : item.expr;
  if (e != nullptr) {
    if (const std::string* col = AsColumnName(*e)) {
      const std::size_t dot = col->rfind('.');
      std::string base = dot == std::string::npos ? *col : col->substr(dot + 1);
      if (item.agg.has_value()) {
        return std::string(AggKindToString(*item.agg)) + "_" + base;
      }
      return base;
    }
  }
  if (item.agg.has_value()) {
    return std::string(AggKindToString(*item.agg)) + std::to_string(index);
  }
  return "col" + std::to_string(index);
}

// ---- Column pruning helpers ---------------------------------------------

using FieldSet = std::set<std::size_t>;

FieldSet AllFields(const Schema& schema) {
  FieldSet all;
  for (std::size_t f = 0; f < schema.num_fields(); ++f) all.insert(f);
  return all;
}

// Adds the fields of `schema` that `expr` references to `out`. False when
// a reference does not resolve; callers then keep every field, so the
// runtime reports the same error a full-width plan would.
bool AddReferences(const ExprPtr& expr, const Schema& schema, FieldSet* out) {
  if (expr == nullptr) return true;
  std::vector<std::string> cols;
  expr->CollectColumns(&cols);
  for (const std::string& c : cols) {
    auto idx = schema.IndexOf(c);
    if (!idx.ok()) return false;
    out->insert(*idx);
  }
  return true;
}

// Binds (and so type-checks) every sort key against `in`.
Status BindKeys(const std::vector<SortKey>& keys, const Schema& in) {
  for (const SortKey& k : keys) SWIFT_RETURN_NOT_OK(Bind(k.expr, in).status());
  return Status::OK();
}

// The schema leaving `op` given the schema entering it, typed the way
// the runtime's operator types it: every expression the op evaluates is
// bound, so a type error surfaces here as the plan's error. Join keys
// are checked per input where the planner matches them (PlanJoin).
Result<Schema> OpOutputSchema(const LocalOpDesc& op, const Schema& in) {
  switch (op.kind) {
    case LocalOpDesc::Kind::kFilter:
      SWIFT_RETURN_NOT_OK(Bind(op.predicate, in).status());
      return in;
    case LocalOpDesc::Kind::kSort:
      SWIFT_RETURN_NOT_OK(BindKeys(op.sort_keys, in));
      return in;
    case LocalOpDesc::Kind::kProject: {
      std::vector<Field> fields;
      for (std::size_t i = 0; i < op.exprs.size(); ++i) {
        SWIFT_ASSIGN_OR_RETURN(BoundExprPtr b, Bind(op.exprs[i], in));
        fields.push_back(Field{op.names[i], b->static_type()});
      }
      return Schema(std::move(fields));
    }
    case LocalOpDesc::Kind::kHashAggregate:
    case LocalOpDesc::Kind::kStreamedAggregate:
      return AggOutputSchema(in, op.exprs, op.names, op.aggs);
    case LocalOpDesc::Kind::kWindow: {
      SWIFT_RETURN_NOT_OK(BindAll(op.partition_by, in).status());
      SWIFT_RETURN_NOT_OK(BindKeys(op.sort_keys, in));
      SWIFT_ASSIGN_OR_RETURN(DataType t,
                             WindowResultType(op.window_func, op.window_arg,
                                              in));
      std::vector<Field> fields = in.fields();
      fields.push_back(Field{op.output_name, t});
      return Schema(std::move(fields));
    }
    case LocalOpDesc::Kind::kLimit:
    case LocalOpDesc::Kind::kHashJoin:
    case LocalOpDesc::Kind::kMergeJoin:
      break;
  }
  return in;
}

// The schema entering each op of `p` given its (concatenated) input;
// the last entry is the stage's output.
Result<std::vector<Schema>> ChainSchemas(const StageProgram& p,
                                         const Schema& input) {
  std::vector<Schema> at = {input};
  for (const LocalOpDesc& op : p.ops) {
    SWIFT_ASSIGN_OR_RETURN(Schema next, OpOutputSchema(op, at.back()));
    at.push_back(std::move(next));
  }
  return at;
}

// The fields of each of `inputs` that `p` reads to produce its whole
// output: liveness walked backward through the op chain.
Result<std::vector<FieldSet>> InputReads(const StageProgram& p,
                                         const std::vector<Schema>& inputs) {
  Schema joined = inputs[0];
  for (std::size_t i = 1; i < inputs.size(); ++i) {
    joined = joined.Concat(inputs[i]);
  }
  SWIFT_ASSIGN_OR_RETURN(const std::vector<Schema> at,
                         ChainSchemas(p, joined));
  FieldSet live = AllFields(at.back());
  for (std::size_t i = p.ops.size(); i-- > 0;) {
    const LocalOpDesc& op = p.ops[i];
    const Schema& in = at[i];
    FieldSet reads;
    bool ok = true;
    switch (op.kind) {
      case LocalOpDesc::Kind::kFilter:
        reads = live;
        ok = AddReferences(op.predicate, in, &reads);
        break;
      case LocalOpDesc::Kind::kSort:
        reads = live;
        for (const SortKey& k : op.sort_keys) {
          ok = ok && AddReferences(k.expr, in, &reads);
        }
        break;
      case LocalOpDesc::Kind::kLimit:
        reads = live;
        break;
      case LocalOpDesc::Kind::kProject:
        for (const ExprPtr& e : op.exprs) {
          ok = ok && AddReferences(e, in, &reads);
        }
        break;
      case LocalOpDesc::Kind::kHashAggregate:
      case LocalOpDesc::Kind::kStreamedAggregate:
        for (const ExprPtr& e : op.exprs) {
          ok = ok && AddReferences(e, in, &reads);
        }
        for (const AggSpec& a : op.aggs) {
          ok = ok && AddReferences(a.arg, in, &reads);
        }
        break;
      case LocalOpDesc::Kind::kWindow:
        reads = live;
        reads.erase(in.num_fields());  // the column this op appends
        for (const ExprPtr& e : op.partition_by) {
          ok = ok && AddReferences(e, in, &reads);
        }
        for (const SortKey& k : op.sort_keys) {
          ok = ok && AddReferences(k.expr, in, &reads);
        }
        ok = ok && AddReferences(op.window_arg, in, &reads);
        break;
      case LocalOpDesc::Kind::kHashJoin:
      case LocalOpDesc::Kind::kMergeJoin: {
        // Keys resolve per side, as the planner matched them.
        reads = live;
        FieldSet right;
        for (const ExprPtr& k : op.left_keys) {
          ok = ok && AddReferences(k, inputs[0], &reads);
        }
        for (const ExprPtr& k : op.right_keys) {
          ok = ok && AddReferences(k, inputs[1], &right);
        }
        for (std::size_t f : right) reads.insert(inputs[0].num_fields() + f);
        break;
      }
    }
    live = ok ? std::move(reads) : AllFields(in);
  }
  std::vector<FieldSet> per_input(inputs.size());
  std::size_t input = 0;
  std::size_t base = 0;
  for (std::size_t f : live) {
    while (f >= base + inputs[input].num_fields()) {
      base += inputs[input].num_fields();
      ++input;
    }
    per_input[input].insert(f - base);
  }
  return per_input;
}

// Appends a projection onto `keep` plus the partition keys, in field
// order and under the exact names, when that drops at least one column.
// Returns whether it did.
bool NarrowOutput(StageProgram* p, FieldSet keep) {
  const Schema& out = p->output_schema;
  for (const ExprPtr& k : p->output_partition_keys) {
    if (!AddReferences(k, out, &keep)) return false;
  }
  if (keep.size() >= out.num_fields()) return false;
  // One-column floor: a batch without columns has no row count, and
  // count(*) downstream needs it.
  if (keep.empty()) keep.insert(0);
  LocalOpDesc proj;
  proj.kind = LocalOpDesc::Kind::kProject;
  std::vector<Field> fields;
  for (std::size_t f : keep) {
    const Field& field = out.field(f);
    // The projection resolves by name: a duplicated name cannot be kept
    // apart from its twin, so such a stage ships full width.
    auto idx = out.IndexOf(field.name);
    if (!idx.ok() || *idx != f) return false;
    proj.exprs.push_back(Expr::Column(field.name));
    proj.names.push_back(field.name);
    fields.push_back(field);
  }
  p->ops.push_back(std::move(proj));
  p->output_schema = Schema(std::move(fields));
  return true;
}

// Narrows a scan to the table columns `reads` (at least one, for the row
// count). A projection NarrowOutput appended is dropped when the narrowed
// scan already yields exactly the shipped columns.
Status NarrowScan(StageProgram* p, FieldSet reads, bool projected) {
  if (reads.empty()) reads.insert(0);
  std::vector<Field> fields;
  std::vector<std::size_t> columns;
  for (std::size_t f : reads) {
    fields.push_back(p->scan_schema.field(f));
    columns.push_back(p->scan_columns[f]);
  }
  p->scan_schema = Schema(std::move(fields));
  p->scan_columns = std::move(columns);
  if (!projected) return Status::OK();
  SWIFT_ASSIGN_OR_RETURN(const std::vector<Schema> at,
                         ChainSchemas(*p, p->scan_schema));
  const Schema& before = at[p->ops.size() - 1];
  const std::vector<std::string>& shipped = p->ops.back().names;
  if (before.num_fields() != shipped.size()) return Status::OK();
  for (std::size_t f = 0; f < shipped.size(); ++f) {
    if (before.field(f).name != shipped[f]) return Status::OK();
  }
  p->ops.pop_back();
  return Status::OK();
}

// ---- Output distribution (DESIGN.md Sec. 20) ---------------------------

// Where a stage's output rows sit across its tasks. A one-task stage is
// `single`; a multi-task stage is `hash(P)` when rows that agree on P sit
// in one task, and `none` otherwise (scan splits). P is one entry per key
// position: the output fields known to hold that key's value (an inner
// join's left and right key columns). Empty: `none`.
using Partitioning = std::vector<FieldSet>;

// Adds the field of `schema` that `key` names, shifted by `base`, when
// `key` is a bare column; an expression names no field.
void AddKeyColumn(const ExprPtr& key, const Schema& schema, std::size_t base,
                  FieldSet* fields) {
  const std::string* name = AsColumnName(*key);
  if (name == nullptr) return;
  auto idx = schema.IndexOf(*name);
  if (idx.ok()) fields->insert(base + *idx);
}

// hash(keys), or `none` when some key position has no output column.
Partitioning HashOn(Partitioning keys) {
  for (const FieldSet& k : keys) {
    if (k.empty()) return {};
  }
  return keys;
}

// `in` (over `schema`) after the projection `proj`: each key position
// keeps the outputs that pass one of its fields through unchanged, as a
// bare column reference under any name.
Partitioning ProjectPartitioning(const Partitioning& in, const Schema& schema,
                                 const LocalOpDesc& proj) {
  Partitioning out(in.size());
  for (std::size_t i = 0; i < proj.exprs.size(); ++i) {
    FieldSet src;
    AddKeyColumn(proj.exprs[i], schema, 0, &src);
    for (std::size_t k = 0; k < in.size(); ++k) {
      if (!src.empty() && in[k].count(*src.begin()) > 0) out[k].insert(i);
    }
  }
  return HashOn(std::move(out));
}

class PlanBuilder {
 public:
  PlanBuilder(const Catalog& catalog, const PlannerConfig& config)
      : catalog_(catalog), config_(config) {}

  Result<DistributedPlan> Build(const SelectStmt& stmt) {
    SWIFT_ASSIGN_OR_RETURN(const StageId top, PlanSelect(stmt));
    // The client reads one task's output: a one-task top stage is the
    // sink itself, any other gathers into a one-task sink stage.
    sink_ = ConsumerStage(top, {}, 1, "R");
    SWIFT_RETURN_NOT_OK(PruneColumns());
    return Finalize(sink_name_, sink_);
  }

 private:
  StageId AllocId() { return static_cast<StageId>(next_id_++); }

  // True when `input`'s rows already sit where a consumer that runs
  // `tasks` tasks and needs the rows agreeing on `keys` in one task wants
  // them: the input is single and so is the consumer, or the input is
  // hash(P) over `tasks` tasks and every key position of P has a column
  // among `keys`, matched by output field.
  bool Satisfies(StageId input, const std::vector<ExprPtr>& keys,
                 int tasks) const {
    const StageProgram& p = stages_.at(input);
    if (p.task_count != tasks) return false;
    if (tasks == 1) return true;
    auto it = partitioning_.find(input);
    if (it == partitioning_.end() || it->second.empty()) return false;
    FieldSet want;
    for (const ExprPtr& k : keys) AddKeyColumn(k, p.output_schema, 0, &want);
    for (const FieldSet& position : it->second) {
      if (std::none_of(position.begin(), position.end(),
                       [&](std::size_t f) { return want.count(f) > 0; })) {
        return false;
      }
    }
    return true;
  }

  // The stage a consumer of `input` keyed by `keys` over `tasks` tasks
  // appends its ops to: `input` itself when it satisfies them, else a new
  // stage named `prefix` + id behind an exchange that routes by `keys`.
  StageId ConsumerStage(StageId input, const std::vector<ExprPtr>& keys,
                        int tasks, const char* prefix) {
    if (Satisfies(input, keys, tasks)) return input;
    StageProgram s;
    s.stage = AllocId();
    s.name = prefix + std::to_string(s.stage + 1);
    s.task_count = tasks;
    s.inputs = {input};
    s.output_schema = stages_.at(input).output_schema;
    stages_.at(input).output_partition_keys = keys;
    const StageId id = s.stage;
    stages_[id] = std::move(s);
    return id;
  }

  // ---- FROM operands -------------------------------------------------
  Result<StageId> PlanFrom(const TableRef& ref) {
    if (ref.subquery != nullptr) {
      SWIFT_ASSIGN_OR_RETURN(StageId sub, PlanSelect(*ref.subquery));
      if (!ref.alias.empty()) {
        // Qualify the subquery's output columns with its alias.
        StageProgram& p = stages_.at(sub);
        std::vector<Field> fields;
        for (const Field& f : p.output_schema.fields()) {
          fields.push_back(Field{ref.alias + "." + f.name, f.type});
        }
        Schema qualified(fields);
        // Rename via projection (column order is unchanged).
        LocalOpDesc proj;
        proj.kind = LocalOpDesc::Kind::kProject;
        for (const Field& f : p.output_schema.fields()) {
          proj.exprs.push_back(Expr::Column(f.name));
        }
        for (const Field& f : qualified.fields()) proj.names.push_back(f.name);
        partitioning_[sub] =
            ProjectPartitioning(partitioning_[sub], p.output_schema, proj);
        p.ops.push_back(std::move(proj));
        p.output_schema = qualified;
      }
      return sub;
    }

    SWIFT_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                           catalog_.Lookup(ref.table_name));
    StageProgram scan;
    scan.stage = AllocId();
    scan.name = "M" + std::to_string(scan.stage + 1);
    scan.scan_table = table->name;
    const int64_t rows = static_cast<int64_t>(table->num_rows());
    scan.task_count = static_cast<int>(std::clamp<int64_t>(
        (rows + config_.rows_per_scan_task - 1) / config_.rows_per_scan_task,
        1, config_.max_scan_tasks));
    if (ref.alias.empty()) {
      scan.output_schema = table->schema;
    } else {
      std::vector<Field> fields;
      for (const Field& f : table->schema.fields()) {
        fields.push_back(Field{ref.alias + "." + f.name, f.type});
      }
      scan.output_schema = Schema(std::move(fields));
    }
    scan.scan_schema = scan.output_schema;
    for (std::size_t c = 0; c < table->schema.num_fields(); ++c) {
      scan.scan_columns.push_back(c);
    }
    StageId id = scan.stage;
    stages_[id] = std::move(scan);
    return id;
  }

  // ---- SELECT core -----------------------------------------------------
  Result<StageId> PlanSelect(const SelectStmt& stmt) {
    if (sink_name_.empty()) sink_name_ = "query";

    // WHERE placement (DESIGN.md Sec. 19): each conjunct runs in the first
    // FROM/JOIN operand of this SELECT that resolves it alone; one that
    // needs several operands attaches at the first join resolving it.
    SWIFT_ASSIGN_OR_RETURN(StageId current, PlanFrom(stmt.from));
    std::vector<ExprPtr> unplaced = SplitConjuncts(stmt.where);
    PlaceConjuncts(current, stages_.at(current).output_schema, &unplaced);

    // Left-deep join chain.
    for (const JoinClause& jc : stmt.joins) {
      SWIFT_ASSIGN_OR_RETURN(StageId rhs, PlanFrom(jc.table));
      // A LEFT JOIN's right input never takes a WHERE conjunct: filtering
      // it there would null-extend the rows the WHERE removes.
      if (!jc.left_outer) {
        PlaceConjuncts(rhs,
                       stages_.at(current).output_schema.Concat(
                           stages_.at(rhs).output_schema),
                       &unplaced);
      }
      SWIFT_ASSIGN_OR_RETURN(current,
                             PlanJoin(current, rhs, jc.on, jc.left_outer));
      PlaceConjuncts(current, stages_.at(current).output_schema, &unplaced);
    }
    if (!unplaced.empty()) {
      return Status::PlanError(StrFormat(
          "predicate '%s' references columns not available in the plan: %s",
          unplaced[0]->ToString().c_str(),
          ResolveStatus(unplaced[0], stages_.at(current).output_schema)
              .message()
              .c_str()));
    }

    // Aggregation / projection.
    if (stmt.HasWindows()) {
      if (stmt.HasAggregates() || !stmt.group_by.empty()) {
        return Status::Unimplemented(
            "window functions cannot be combined with GROUP BY/aggregates");
      }
      SWIFT_ASSIGN_OR_RETURN(current, PlanWindowStage(stmt, current));
    } else if (stmt.HasAggregates() || !stmt.group_by.empty()) {
      SWIFT_ASSIGN_OR_RETURN(current, PlanAggregate(stmt, current));
    } else {
      if (stmt.having != nullptr) {
        return Status::PlanError("HAVING requires GROUP BY or aggregates");
      }
      SWIFT_RETURN_NOT_OK(PlanProjection(stmt, current));
    }

    // ORDER BY / LIMIT within this (sub)query: runs in one task so the
    // ordering is global.
    if (!stmt.order_by.empty() || stmt.limit.has_value()) {
      SWIFT_ASSIGN_OR_RETURN(current, PlanOrderLimit(stmt, current));
    }
    return current;
  }

  // Moves each conjunct of `*pending` that resolves against both `stage`'s
  // output and `scope` (the schema the conjunct is written against) into a
  // filter at the end of `stage`; the rest stay pending. `scope` keeps a
  // name that one operand has but the join makes ambiguous unplaced.
  void PlaceConjuncts(StageId stage, const Schema& scope,
                      std::vector<ExprPtr>* pending) {
    std::vector<ExprPtr> still;
    for (ExprPtr& c : *pending) {
      if (Resolves(c, stages_.at(stage).output_schema) &&
          Resolves(c, scope)) {
        AppendFilter(stage, std::move(c));
      } else {
        still.push_back(std::move(c));
      }
    }
    *pending = std::move(still);
  }

  void AppendFilter(StageId stage, ExprPtr predicate) {
    LocalOpDesc f;
    f.kind = LocalOpDesc::Kind::kFilter;
    f.predicate = std::move(predicate);
    stages_.at(stage).ops.push_back(std::move(f));
  }

  Result<StageId> PlanJoin(StageId left, StageId right, const ExprPtr& on,
                           bool left_outer) {
    const Schema& ls = stages_.at(left).output_schema;
    const Schema& rs = stages_.at(right).output_schema;
    std::vector<ExprPtr> lkeys, rkeys, residual;
    for (const ExprPtr& c : SplitConjuncts(on)) {
      auto parts = AsBinary(c);
      bool matched = false;
      if (parts.has_value() && parts->op == BinaryOp::kEq) {
        if (Resolves(parts->lhs, ls) && Resolves(parts->rhs, rs)) {
          lkeys.push_back(parts->lhs);
          rkeys.push_back(parts->rhs);
          matched = true;
        } else if (Resolves(parts->rhs, ls) && Resolves(parts->lhs, rs)) {
          lkeys.push_back(parts->rhs);
          rkeys.push_back(parts->lhs);
          matched = true;
        }
      }
      if (!matched) residual.push_back(c);
    }
    if (lkeys.empty()) {
      return Status::Unimplemented(StrFormat(
          "join without equi-condition: '%s'",
          on == nullptr ? "<none>" : on->ToString().c_str()));
    }
    // Each key pair is typed like the `=` conjunct it came from.
    for (std::size_t k = 0; k < lkeys.size(); ++k) {
      SWIFT_ASSIGN_OR_RETURN(BoundExprPtr l, Bind(lkeys[k], ls));
      SWIFT_ASSIGN_OR_RETURN(BoundExprPtr r, Bind(rkeys[k], rs));
      SWIFT_RETURN_NOT_OK(BinaryResultType(
                              Expr::Binary(BinaryOp::kEq, lkeys[k], rkeys[k]),
                              BinaryOp::kEq, l->static_type(),
                              r->static_type())
                              .status());
    }

    StageProgram join;
    join.stage = AllocId();
    join.name = "J" + std::to_string(join.stage + 1);
    join.task_count = config_.shuffle_tasks;
    join.inputs = {left, right};
    LocalOpDesc jd;
    jd.kind = config_.sort_mode ? LocalOpDesc::Kind::kMergeJoin
                                : LocalOpDesc::Kind::kHashJoin;
    jd.left_keys = lkeys;
    jd.right_keys = rkeys;
    jd.left_outer = left_outer;
    join.ops.push_back(std::move(jd));
    join.output_schema = ls.Concat(rs);
    // Residual ON conjuncts follow the WHERE rule: one that resolves
    // against a single input (and stays unambiguous in the joined schema)
    // pre-filters that input. A LEFT JOIN's extra ON conditions restrict
    // *matching*, never the preserved side, so there only the right input
    // qualifies; anything else would need a match-time predicate, which
    // the runtime's joins do not take.
    for (const ExprPtr& c : residual) {
      const Status joined = ResolveStatus(c, join.output_schema);
      if (!joined.ok()) {
        return Status::PlanError(StrFormat(
            "ON predicate '%s' references unknown columns: %s",
            c->ToString().c_str(), joined.message().c_str()));
      }
      if (Resolves(c, rs)) {
        AppendFilter(right, c);
        continue;
      }
      if (left_outer) {
        return Status::Unimplemented(StrFormat(
            "LEFT JOIN ON predicate '%s' must reference only the right "
            "side", c->ToString().c_str()));
      }
      if (Resolves(c, ls)) {
        AppendFilter(left, c);
        continue;
      }
      LocalOpDesc f;
      f.kind = LocalOpDesc::Kind::kFilter;
      f.predicate = c;
      join.ops.push_back(std::move(f));
    }

    stages_.at(left).output_partition_keys = lkeys;
    stages_.at(right).output_partition_keys = rkeys;
    // Rows are routed by the left keys; an inner join's matched rows hold
    // equal right keys, but a LEFT JOIN's NULL-extended rows do not.
    Partitioning routed(lkeys.size());
    for (std::size_t k = 0; k < lkeys.size(); ++k) {
      AddKeyColumn(lkeys[k], ls, 0, &routed[k]);
      if (!left_outer) {
        AddKeyColumn(rkeys[k], rs, ls.num_fields(), &routed[k]);
      }
    }
    StageId id = join.stage;
    partitioning_[id] = HashOn(std::move(routed));
    stages_[id] = std::move(join);
    return id;
  }

  Result<StageId> PlanAggregate(const SelectStmt& stmt, StageId input) {
    const Schema in = stages_.at(input).output_schema;

    // Alias substitution for GROUP BY entries that name a SELECT alias
    // not present in the input schema.
    auto substitute = [&](const ExprPtr& e) -> ExprPtr {
      const std::string* name = AsColumnName(*e);
      if (name == nullptr || in.IndexOf(*name).ok()) return e;
      for (std::size_t i = 0; i < stmt.items.size(); ++i) {
        const SelectItem& it = stmt.items[i];
        if (!it.agg.has_value() && it.expr != nullptr &&
            EqualsIgnoreCase(ItemName(it, i), *name)) {
          return it.expr;
        }
      }
      return e;
    };

    std::vector<ExprPtr> groups;
    for (const ExprPtr& g : stmt.group_by) groups.push_back(substitute(g));

    // Group output names come from matching SELECT items when possible.
    std::vector<std::string> group_names;
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
      std::string name = "g" + std::to_string(gi);
      for (std::size_t i = 0; i < stmt.items.size(); ++i) {
        const SelectItem& it = stmt.items[i];
        if (it.agg.has_value() || it.expr == nullptr) continue;
        if (it.expr->ToString() == groups[gi]->ToString() ||
            substitute(it.expr)->ToString() == groups[gi]->ToString()) {
          name = ItemName(it, i);
          break;
        }
      }
      group_names.push_back(std::move(name));
    }

    std::vector<AggSpec> aggs;
    for (std::size_t i = 0; i < stmt.items.size(); ++i) {
      const SelectItem& it = stmt.items[i];
      if (!it.agg.has_value()) continue;
      AggSpec spec;
      spec.kind = *it.agg;
      spec.arg = it.agg_arg;
      spec.output_name = ItemName(it, i);
      aggs.push_back(std::move(spec));
    }

    // Every non-aggregate SELECT item must be a grouping expression.
    for (std::size_t i = 0; i < stmt.items.size(); ++i) {
      const SelectItem& it = stmt.items[i];
      if (it.agg.has_value()) continue;
      if (it.star) {
        return Status::PlanError("'*' not allowed with aggregates");
      }
      const std::string want = substitute(it.expr)->ToString();
      bool found = false;
      for (const ExprPtr& g : groups) {
        if (g->ToString() == want) {
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::PlanError(StrFormat(
            "SELECT item '%s' is neither aggregated nor grouped",
            it.expr->ToString().c_str()));
      }
    }

    const StageId id = ConsumerStage(
        input, groups, groups.empty() ? 1 : config_.shuffle_tasks, "R");
    StageProgram& agg = stages_.at(id);
    LocalOpDesc ad;
    ad.kind = config_.sort_mode ? LocalOpDesc::Kind::kStreamedAggregate
                                : LocalOpDesc::Kind::kHashAggregate;
    ad.exprs = groups;
    ad.names = group_names;
    ad.aggs = aggs;
    agg.ops.push_back(std::move(ad));

    // Aggregate output: groups then aggs; reorder to SELECT order when
    // they differ.
    std::vector<std::string> natural;
    for (const std::string& g : group_names) natural.push_back(g);
    for (const AggSpec& a : aggs) natural.push_back(a.output_name);
    std::vector<std::string> want_names;
    for (std::size_t i = 0; i < stmt.items.size(); ++i) {
      const SelectItem& it = stmt.items[i];
      if (it.agg.has_value()) {
        want_names.push_back(ItemName(it, i));
      } else {
        const std::string w = substitute(it.expr)->ToString();
        for (std::size_t gi = 0; gi < groups.size(); ++gi) {
          if (groups[gi]->ToString() == w) {
            want_names.push_back(group_names[gi]);
            break;
          }
        }
      }
    }

    // The natural output schema, typed as the aggregate operator types
    // it.
    SWIFT_ASSIGN_OR_RETURN(const Schema natural_schema,
                           AggOutputSchema(in, groups, group_names, aggs));

    if (want_names != natural) {
      LocalOpDesc proj;
      proj.kind = LocalOpDesc::Kind::kProject;
      for (const std::string& n : want_names) {
        proj.exprs.push_back(Expr::Column(n));
        proj.names.push_back(n);
      }
      agg.ops.push_back(std::move(proj));
      std::vector<Field> fields;
      for (const std::string& n : want_names) {
        auto idx = natural_schema.IndexOf(n);
        fields.push_back(idx.ok() ? natural_schema.field(*idx)
                                  : Field{n, DataType::kNull});
      }
      agg.output_schema = Schema(std::move(fields));
    } else {
      agg.output_schema = natural_schema;
    }

    // HAVING filters on the aggregate's output names (aliases).
    if (stmt.having != nullptr) {
      if (!Resolves(stmt.having, agg.output_schema)) {
        return Status::PlanError(StrFormat(
            "HAVING '%s' must reference SELECT output names",
            stmt.having->ToString().c_str()));
      }
      LocalOpDesc f;
      f.kind = LocalOpDesc::Kind::kFilter;
      f.predicate = stmt.having;
      agg.ops.push_back(std::move(f));
    }

    // One row per group leaves the stage, so the group columns partition
    // it whether or not it shuffled.
    Partitioning on(groups.size());
    for (std::size_t g = 0; g < groups.size(); ++g) {
      auto field = agg.output_schema.IndexOf(group_names[g]);
      if (field.ok()) on[g].insert(*field);
    }
    partitioning_[id] = HashOn(std::move(on));
    return id;
  }

  // Window stage: hash-partition by PARTITION BY, compute each window
  // column (the paper's Window operator, a global-sort op -> barrier
  // output edges), then project to SELECT order.
  Result<StageId> PlanWindowStage(const SelectStmt& stmt, StageId input) {
    const Schema in = stages_.at(input).output_schema;

    // All window items must share one PARTITION BY (one shuffle).
    const WindowSpec* first = nullptr;
    for (const SelectItem& it : stmt.items) {
      if (!it.window.has_value()) continue;
      if (first == nullptr) {
        first = &*it.window;
        continue;
      }
      if (it.window->partition_by.size() != first->partition_by.size()) {
        return Status::Unimplemented(
            "window functions with different PARTITION BY clauses");
      }
      for (std::size_t i = 0; i < first->partition_by.size(); ++i) {
        if (it.window->partition_by[i]->ToString() !=
            first->partition_by[i]->ToString()) {
          return Status::Unimplemented(
              "window functions with different PARTITION BY clauses");
        }
      }
    }

    std::vector<Field> fields = in.fields();
    std::vector<LocalOpDesc> windows;
    for (std::size_t i = 0; i < stmt.items.size(); ++i) {
      const SelectItem& it = stmt.items[i];
      if (!it.window.has_value()) continue;
      const WindowSpec& spec = *it.window;
      for (const ExprPtr& e : spec.partition_by) {
        if (!Resolves(e, in)) {
          return Status::PlanError(StrFormat(
              "PARTITION BY '%s' references unknown columns",
              e->ToString().c_str()));
        }
      }
      LocalOpDesc w;
      w.kind = LocalOpDesc::Kind::kWindow;
      w.partition_by = spec.partition_by;
      for (const auto& oi : spec.order_by) {
        if (!Resolves(oi->expr, in)) {
          return Status::PlanError(StrFormat(
              "window ORDER BY '%s' references unknown columns",
              oi->expr->ToString().c_str()));
        }
        w.sort_keys.push_back(SortKey{oi->expr, oi->ascending});
      }
      w.window_func = spec.func;
      w.window_arg = spec.arg;
      if (spec.func == WindowFunc::kSum &&
          (spec.arg == nullptr || !Resolves(spec.arg, in))) {
        return Status::PlanError("window sum() argument unresolvable");
      }
      w.output_name = ItemName(it, i);
      SWIFT_ASSIGN_OR_RETURN(DataType t,
                             WindowResultType(spec.func, spec.arg, in));
      fields.push_back(Field{w.output_name, t});
      windows.push_back(std::move(w));
    }
    const Schema extended(fields);

    // Project to SELECT order.
    LocalOpDesc proj;
    proj.kind = LocalOpDesc::Kind::kProject;
    std::vector<Field> out_fields;
    for (std::size_t i = 0; i < stmt.items.size(); ++i) {
      const SelectItem& it = stmt.items[i];
      if (it.star) {
        return Status::Unimplemented("'*' mixed with window functions");
      }
      const std::string name = ItemName(it, i);
      ExprPtr e = it.window.has_value() ? Expr::Column(name) : it.expr;
      if (!Resolves(e, extended)) {
        return Status::PlanError(StrFormat(
            "SELECT item '%s' references unknown columns",
            e->ToString().c_str()));
      }
      SWIFT_ASSIGN_OR_RETURN(BoundExprPtr b, Bind(e, extended));
      out_fields.push_back(Field{name, b->static_type()});
      proj.exprs.push_back(std::move(e));
      proj.names.push_back(name);
    }

    const StageId id = ConsumerStage(
        input, first->partition_by,
        first->partition_by.empty() ? 1 : config_.shuffle_tasks, "W");
    StageProgram& win = stages_.at(id);
    if (id != input) {
      Partitioning on(first->partition_by.size());
      for (std::size_t k = 0; k < on.size(); ++k) {
        AddKeyColumn(first->partition_by[k], in, 0, &on[k]);
      }
      partitioning_[id] = HashOn(std::move(on));
    }
    // Window columns append after the input's, so field indices hold
    // until the projection.
    partitioning_[id] = ProjectPartitioning(partitioning_[id], extended, proj);
    for (LocalOpDesc& w : windows) win.ops.push_back(std::move(w));
    win.ops.push_back(std::move(proj));
    win.output_schema = Schema(std::move(out_fields));
    return id;
  }

  Status PlanProjection(const SelectStmt& stmt, StageId current) {
    if (stmt.items.size() == 1 && stmt.items[0].star) {
      return Status::OK();  // identity
    }
    for (const SelectItem& it : stmt.items) {
      if (it.star) {
        return Status::Unimplemented("'*' mixed with other SELECT items");
      }
    }
    StageProgram& p = stages_.at(current);
    LocalOpDesc proj;
    proj.kind = LocalOpDesc::Kind::kProject;
    std::vector<Field> fields;
    for (std::size_t i = 0; i < stmt.items.size(); ++i) {
      const SelectItem& it = stmt.items[i];
      if (!Resolves(it.expr, p.output_schema)) {
        return Status::PlanError(StrFormat(
            "SELECT item '%s' references unknown columns",
            it.expr->ToString().c_str()));
      }
      proj.exprs.push_back(it.expr);
      const std::string name = ItemName(it, i);
      proj.names.push_back(name);
      SWIFT_ASSIGN_OR_RETURN(BoundExprPtr b, Bind(it.expr, p.output_schema));
      fields.push_back(Field{name, b->static_type()});
    }
    partitioning_[current] = ProjectPartitioning(partitioning_[current],
                                                 p.output_schema, proj);
    p.ops.push_back(std::move(proj));
    p.output_schema = Schema(std::move(fields));
    return Status::OK();
  }

  Result<StageId> PlanOrderLimit(const SelectStmt& stmt, StageId input) {
    const StageId id = ConsumerStage(input, {}, 1, "R");
    StageProgram& fin = stages_.at(id);
    if (!stmt.order_by.empty()) {
      LocalOpDesc sort;
      sort.kind = LocalOpDesc::Kind::kSort;
      for (const OrderItem& oi : stmt.order_by) {
        if (!Resolves(oi.expr, fin.output_schema)) {
          return Status::PlanError(StrFormat(
              "ORDER BY '%s' references unknown columns",
              oi.expr->ToString().c_str()));
        }
        sort.sort_keys.push_back(SortKey{oi.expr, oi.ascending});
      }
      fin.ops.push_back(std::move(sort));
    }
    if (stmt.limit.has_value()) {
      LocalOpDesc lim;
      lim.kind = LocalOpDesc::Kind::kLimit;
      lim.limit = *stmt.limit;
      fin.ops.push_back(std::move(lim));
    }
    return id;
  }

  // ---- Column pruning --------------------------------------------------
  // Backward pass from the sink (DESIGN.md Sec. 18): each non-sink stage
  // ships exactly the columns its consumer reads plus its own partition
  // keys, and each scan reads only the table columns its stage uses.
  // Stage ids grow from producer to consumer, so descending id order
  // visits every consumer before its inputs. Walking each stage's chain
  // binds every expression of the plan once, so a type error the planner
  // did not meet earlier surfaces here.
  Status PruneColumns() {
    std::map<StageId, FieldSet> consumer_reads;
    for (auto it = stages_.rbegin(); it != stages_.rend(); ++it) {
      StageProgram& p = it->second;
      const bool projected = p.stage != sink_ &&
                             NarrowOutput(&p, consumer_reads[p.stage]);
      if (!p.scan_table.empty()) {
        SWIFT_ASSIGN_OR_RETURN(std::vector<FieldSet> reads,
                               InputReads(p, {p.scan_schema}));
        SWIFT_RETURN_NOT_OK(NarrowScan(&p, std::move(reads[0]), projected));
        continue;
      }
      std::vector<Schema> inputs;
      for (StageId in : p.inputs) {
        inputs.push_back(stages_.at(in).output_schema);
      }
      SWIFT_ASSIGN_OR_RETURN(std::vector<FieldSet> reads,
                             InputReads(p, inputs));
      for (std::size_t i = 0; i < p.inputs.size(); ++i) {
        consumer_reads[p.inputs[i]] = std::move(reads[i]);
      }
    }
    return Status::OK();
  }

  // ---- DAG assembly ----------------------------------------------------
  static std::vector<OperatorKind> OperatorKinds(const StageProgram& p,
                                                 bool is_sink) {
    std::vector<OperatorKind> kinds;
    kinds.push_back(p.scan_table.empty() ? OperatorKind::kShuffleRead
                                         : OperatorKind::kTableScan);
    for (const LocalOpDesc& op : p.ops) {
      switch (op.kind) {
        case LocalOpDesc::Kind::kFilter:
          kinds.push_back(OperatorKind::kFilter);
          break;
        case LocalOpDesc::Kind::kProject:
          kinds.push_back(OperatorKind::kProject);
          break;
        case LocalOpDesc::Kind::kHashJoin:
          kinds.push_back(OperatorKind::kHashJoin);
          break;
        case LocalOpDesc::Kind::kMergeJoin:
          kinds.push_back(OperatorKind::kMergeJoin);
          kinds.push_back(OperatorKind::kMergeSort);
          break;
        case LocalOpDesc::Kind::kSort:
          kinds.push_back(OperatorKind::kSortBy);
          break;
        case LocalOpDesc::Kind::kHashAggregate:
          kinds.push_back(OperatorKind::kHashAggregate);
          break;
        case LocalOpDesc::Kind::kStreamedAggregate:
          kinds.push_back(OperatorKind::kStreamedAggregate);
          break;
        case LocalOpDesc::Kind::kLimit:
          kinds.push_back(OperatorKind::kLimit);
          break;
        case LocalOpDesc::Kind::kWindow:
          kinds.push_back(OperatorKind::kWindow);
          break;
      }
    }
    kinds.push_back(is_sink ? OperatorKind::kAdhocSink
                            : OperatorKind::kShuffleWrite);
    return kinds;
  }

  Result<DistributedPlan> Finalize(const std::string& job_name,
                                   StageId final_stage) {
    std::vector<StageDef> defs;
    std::vector<EdgeDef> edges;
    for (const auto& [id, p] : stages_) {
      StageDef def;
      def.id = id;
      def.name = p.name;
      def.task_count = p.task_count;
      def.operators = OperatorKinds(p, id == sink_);
      // Hash-based operators make output order input-arrival dependent:
      // the paper's non-idempotent class (Sec. IV-B).
      def.idempotent = true;
      for (const LocalOpDesc& op : p.ops) {
        if (op.kind == LocalOpDesc::Kind::kHashJoin ||
            op.kind == LocalOpDesc::Kind::kHashAggregate) {
          def.idempotent = false;
        }
      }
      defs.push_back(std::move(def));
      for (StageId in : p.inputs) {
        edges.push_back(EdgeDef{in, id, std::nullopt});
      }
    }
    SWIFT_ASSIGN_OR_RETURN(JobDag dag,
                           JobDag::Create(job_name, defs, edges));
    DistributedPlan plan;
    plan.dag = std::move(dag);
    plan.stages = std::move(stages_);
    plan.final_stage = final_stage;
    return plan;
  }

  const Catalog& catalog_;
  const PlannerConfig& config_;
  std::map<StageId, StageProgram> stages_;
  /// Each stage's hash(P) (absent or empty: `none`); a one-task stage
  /// is `single` whatever its entry holds.
  std::map<StageId, Partitioning> partitioning_;
  /// The stage whose output the client reads.
  StageId sink_ = -1;
  std::string sink_name_;
  int next_id_ = 0;
};

}  // namespace

std::string DistributedPlan::ToString() const {
  std::ostringstream os;
  os << dag.ToString();
  for (const auto& [id, p] : stages) {
    os << "  program " << p.name << ": ";
    if (!p.scan_table.empty()) {
      os << "scan(" << p.scan_table << ":";
      for (std::size_t f = 0; f < p.scan_schema.num_fields(); ++f) {
        os << (f == 0 ? " " : ", ") << p.scan_schema.field(f).name;
      }
      os << ") ";
    }
    os << "tasks=" << p.task_count
       << (id == final_stage ? " returns=" : " ships=")
       << p.output_schema.ToString();
    // Where predicates run (DESIGN.md Sec. 19), in op order.
    std::string filters;
    for (const LocalOpDesc& op : p.ops) {
      if (op.kind != LocalOpDesc::Kind::kFilter) continue;
      if (!filters.empty()) filters += " and ";
      filters += op.predicate->ToString();
    }
    if (!filters.empty()) os << " filter=(" << filters << ")";
    os << "\n";
  }
  return os.str();
}

Result<DistributedPlan> PlanQuery(const SelectStmt& stmt,
                                  const Catalog& catalog,
                                  const PlannerConfig& config) {
  PlanBuilder builder(catalog, config);
  return builder.Build(stmt);
}

Result<DistributedPlan> PlanSql(const std::string& sql, const Catalog& catalog,
                                const PlannerConfig& config) {
  SWIFT_ASSIGN_OR_RETURN(std::shared_ptr<SelectStmt> stmt, ParseSelect(sql));
  return PlanQuery(*stmt, catalog, config);
}

}  // namespace swift
