#include "repair/repair_sink.h"

#include <algorithm>
#include <unordered_map>

#include "algebra/algebra_eval.h"  // RowToRecord
#include "common/trace.h"

namespace cleanm {

namespace {

/// An action value: a struct with an "entity" field and a struct-valued
/// "set" field. (The shape is distinctive enough that projection fields
/// carrying ordinary data can never be mistaken for repairs.)
bool IsRepairAction(const Value& v) {
  if (v.type() != ValueType::kStruct) return false;
  bool has_entity = false, has_set = false;
  for (const auto& [name, field] : v.AsStruct()) {
    if (name == "entity") has_entity = true;
    if (name == "set" && field.type() == ValueType::kStruct) has_set = true;
  }
  return has_entity && has_set;
}

RepairAction ToAction(const Value& v) {
  RepairAction action;
  for (const auto& [name, field] : v.AsStruct()) {
    if (name == "entity") action.entity = field;
    if (name == "set") action.set = field.AsStruct();
  }
  return action;
}

/// The cell overwrite both commit paths run. The actions are indexed by
/// entity hash and their columns resolved once, so one pass over the rows
/// costs O(rows + actions). Row and cell counts go to the summary.
class RepairEditor {
 public:
  /// kKeyError when an action names a column `schema` does not have.
  static Result<RepairEditor> Make(const Schema& schema,
                                   const std::vector<RepairAction>& actions,
                                   RepairSummary* summary) {
    RepairEditor editor(actions, summary);
    summary->actions = actions.size();
    for (size_t a = 0; a < actions.size(); a++) {
      for (const auto& [column, value] : actions[a].set) {
        (void)value;
        CLEANM_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(column));
        editor.column_indexes_[a].push_back(idx);
      }
      editor.by_entity_[actions[a].entity.Hash()].push_back(a);
    }
    return editor;
  }

  /// Overwrites the cells of `*row` that the actions whose entity equals
  /// its record name; true when a cell changed.
  bool Edit(const Schema& schema, Row* row) {
    const Value record = RowToRecord(schema, *row);
    auto candidates = by_entity_.find(record.Hash());
    if (candidates == by_entity_.end()) return false;
    bool changed = false;
    for (size_t a : candidates->second) {
      if (!(*actions_)[a].entity.Equals(record)) continue;
      matched_[a] = true;
      const ValueStruct& set = (*actions_)[a].set;
      for (size_t s = 0; s < set.size(); s++) {
        const size_t idx = column_indexes_[a][s];
        if ((*row)[idx].Equals(set[s].second)) continue;
        (*row)[idx] = set[s].second;
        summary_->cells_changed++;
        changed = true;
      }
    }
    if (changed) summary_->rows_changed++;
    return changed;
  }

  /// Counts the actions that matched no row, once every row was edited.
  void CountUnmatched() {
    for (bool m : matched_) {
      if (!m) summary_->unmatched++;
    }
  }

 private:
  RepairEditor(const std::vector<RepairAction>& actions, RepairSummary* summary)
      : actions_(&actions),
        summary_(summary),
        column_indexes_(actions.size()),
        matched_(actions.size(), false) {}

  const std::vector<RepairAction>* actions_;
  RepairSummary* summary_;
  std::vector<std::vector<size_t>> column_indexes_;
  std::unordered_map<uint64_t, std::vector<size_t>> by_entity_;
  std::vector<bool> matched_;
};

}  // namespace

std::vector<RepairAction> ExtractRepairActions(
    const Value& output_tuple, const std::vector<std::string>* fields) {
  std::vector<RepairAction> actions;
  if (output_tuple.type() != ValueType::kStruct) return actions;
  for (const auto& [name, field] : output_tuple.AsStruct()) {
    if (fields != nullptr &&
        std::find(fields->begin(), fields->end(), name) == fields->end()) {
      continue;
    }
    if (IsRepairAction(field)) {
      actions.push_back(ToAction(field));
      continue;
    }
    if (field.type() == ValueType::kList) {
      for (const auto& element : field.AsList()) {
        if (IsRepairAction(element)) actions.push_back(ToAction(element));
      }
    }
  }
  return actions;
}

Result<Dataset> ApplyRepairActions(const Dataset& source,
                                   const std::vector<RepairAction>& actions,
                                   RepairSummary* summary, QueryMetrics* metrics) {
  CLEANM_ASSIGN_OR_RETURN(RepairEditor editor,
                          RepairEditor::Make(source.schema(), actions, summary));
  Dataset repaired(source.schema());
  for (const auto& source_row : source.rows()) {
    Row row = source_row;
    editor.Edit(source.schema(), &row);
    repaired.Append(std::move(row));
  }
  editor.CountUnmatched();
  if (metrics) metrics->repairs_applied += summary->cells_changed;
  return repaired;
}

RepairSink::RepairSink(CleanDB* db, const PreparedQuery& pq,
                       std::string target_table)
    : db_(db),
      source_table_(pq.repair_table()),
      target_table_(std::move(target_table)),
      repair_fields_(pq.repair_fields()) {}

RepairSink::RepairSink(CleanDB* db, std::string source_table,
                       std::string target_table)
    : db_(db),
      source_table_(std::move(source_table)),
      target_table_(std::move(target_table)) {}

Status RepairSink::OnViolation(const std::string& op_name, const Value& violation) {
  (void)op_name;
  const std::vector<std::string>* fields =
      repair_fields_.empty() ? nullptr : &repair_fields_;
  for (auto& action : ExtractRepairActions(violation, fields)) {
    actions_.push_back(std::move(action));
  }
  return Status::OK();
}

Status RepairSink::OnDirtyEntity(const Value& entity,
                                 const std::vector<std::string>& violated_ops) {
  (void)entity;
  (void)violated_ops;
  return Status::OK();
}

Result<RepairSummary> RepairSink::Commit() {
  if (db_ == nullptr) return Status::Internal("RepairSink has no CleanDB");
  TraceScope commit_span("repair", "repair_commit");
  commit_span.SetRowsIn(actions_.size());
  // Read-modify-write under the session commit lock: no other committer can
  // replace the source table between reading it and re-registering the
  // repaired copy, so concurrent Commits serialize instead of losing
  // updates. In-flight executions are unaffected — they hold snapshot
  // leases — and see the new generation only if they start after
  // RegisterTable below.
  auto commit_lock = db_->LockCommits();
  CLEANM_ASSIGN_OR_RETURN(std::shared_ptr<const Dataset> source,
                          db_->GetTableShared(source_table_));

  RepairSummary summary;
  CLEANM_ASSIGN_OR_RETURN(
      Dataset repaired,
      ApplyRepairActions(*source, actions_, &summary,
                         &db_->cluster().session_metrics()));

  // Re-register under the target name: RegisterTable bumps the generation
  // and invalidates every cached partitioning of that table, so follow-up
  // (even already-prepared) queries bind the clean data.
  const std::string target =
      target_table_.empty() ? source_table_ : target_table_;
  db_->RegisterTable(target, std::move(repaired));
  summary.table = target;
  summary.new_generation = db_->TableGeneration(target);
  actions_.clear();
  return summary;
}

Result<RepairSummary> RepairSink::CommitDelta() {
  if (db_ == nullptr) return Status::Internal("RepairSink has no CleanDB");
  if (!target_table_.empty() && target_table_ != source_table_) {
    return Status::InvalidArgument(
        "CommitDelta repairs in place; re-registering under a new name ('" +
        target_table_ + "') requires Commit()");
  }
  TraceScope commit_span("repair", "repair_commit_delta");
  commit_span.SetRowsIn(actions_.size());
  // Same serialization as Commit(): the commit lock keeps other committers
  // out of the read-modify-write window. The mutation itself is atomic
  // under the table lock; concurrent snapshots see either the pre- or
  // post-repair generation, never a torn state.
  auto commit_lock = db_->LockCommits();
  // Only the schema is needed up front, so the lease is dropped before the
  // mutation: a live lease would make UpdateRowsWith copy the whole table.
  // Mutations never change a table's schema, so the columns the editor
  // resolves here stay valid for the UpdateRowsWith run.
  Schema source_schema;
  {
    CLEANM_ASSIGN_OR_RETURN(std::shared_ptr<const Dataset> source,
                            db_->GetTableShared(source_table_));
    source_schema = source->schema();
  }
  RepairSummary summary;
  CLEANM_ASSIGN_OR_RETURN(RepairEditor editor,
                          RepairEditor::Make(source_schema, actions_, &summary));
  CLEANM_ASSIGN_OR_RETURN(
      CleanDB::MutationResult mutation,
      db_->UpdateRowsWith(source_table_, [&editor](const Schema& schema, Row* row) {
        return editor.Edit(schema, row);
      }));
  editor.CountUnmatched();
  db_->cluster().session_metrics().repairs_applied += summary.cells_changed;

  summary.table = source_table_;
  summary.new_generation =
      mutation.generation ? mutation.generation : db_->TableGeneration(source_table_);
  actions_.clear();
  return summary;
}

}  // namespace cleanm
