#include "cleaning/violation_sink.h"

#include "common/hash.h"

namespace cleanm {

Status ViolationReport::BeginOp(const CleaningPlan& op) {
  op_ = &op;
  op_timer_.Reset();
  emitted_ = 0;
  seen_.clear();
  return sink_.OnOpBegin(op.op_name);
}

Status ViolationReport::Emit(const Value& v, bool is_new) {
  projection_.clear();
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const auto& var : op_->entity_vars) {
    auto field = v.GetField(var);
    if (!field.ok()) continue;
    h = HashCombine(h, field.value().Hash());
    projection_.push_back(field.MoveValue());
  }
  if (!projection_.empty() && !seen_.insert(h).second) return Status::OK();
  CLEANM_RETURN_NOT_OK(is_new ? sink_.OnViolationNew(op_->op_name, v)
                              : sink_.OnViolation(op_->op_name, v));
  emitted_++;
  auto add = [&](const Value& e) {
    auto& ops = entities_[e];
    if (ops.empty() || ops.back() != op_->op_name) ops.push_back(op_->op_name);
  };
  for (const Value& entity : projection_) {
    if (entity.type() == ValueType::kList) {
      for (const auto& e : entity.AsList()) add(e);
    } else {
      add(entity);
    }
  }
  return Status::OK();
}

Status ViolationReport::EndOp() {
  OpSummary summary;
  summary.op_name = op_->op_name;
  summary.violations = emitted_;
  summary.seconds = op_timer_.ElapsedSeconds();
  return sink_.OnOpEnd(summary);
}

Status ViolationReport::Finish() {
  for (const auto& [entity, ops] : entities_) {
    CLEANM_RETURN_NOT_OK(sink_.OnDirtyEntity(entity, ops));
  }
  return Status::OK();
}

}  // namespace cleanm
