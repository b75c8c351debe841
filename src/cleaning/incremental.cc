#include "cleaning/incremental.h"

#include <algorithm>
#include <utility>

#include "common/timer.h"
#include "physical/tuple.h"
#include "storage/delta.h"

namespace cleanm {

namespace {

using engine::Partition;

/// One compiled transform stage of a root's chain, applied tuple-wise.
struct ChainStage {
  AlgKind kind = AlgKind::kSelect;
  std::function<bool(const Value&)> pred;  ///< kSelect
  CompiledExpr path;                       ///< kUnnest / kOuterUnnest
  std::string var;
};

struct RootWork {
  const CleaningPlan* plan = nullptr;
  const AlgOp* root = nullptr;
  const AlgOp* nest_key = nullptr;
  /// Bottom-up (nest → root) compiled transform chain.
  std::vector<ChainStage> stages;
};

struct NestWork {
  AlgOpPtr nest;
  std::string table;
  std::string var;
  Executor::CompiledNest compiled;
  IncrementalNestState* state = nullptr;
  /// Keys this execution's delta touched; true = the key saw a removal (its
  /// accumulators were re-folded from the member bag).
  std::unordered_map<Value, bool, IncrementalValueHash, IncrementalValueEq> touched;
};

/// Peels root-first transforms down to an exact-key Nest over a Scan.
/// `chain` receives the transform nodes root-first.
bool AnalyzeRoot(const AlgOpPtr& root, std::vector<const AlgOp*>* chain,
                 AlgOpPtr* nest) {
  AlgOpPtr cur = root;
  while (cur) {
    switch (cur->kind) {
      case AlgKind::kSelect:
      case AlgKind::kUnnest:
      case AlgKind::kOuterUnnest:
        chain->push_back(cur.get());
        cur = cur->input;
        continue;
      case AlgKind::kNest:
        if (cur->group.algo != FilteringAlgo::kExactKey) return false;
        if (!cur->input || cur->input->kind != AlgKind::kScan) return false;
        *nest = cur;
        return true;
      default:
        return false;
    }
  }
  return false;
}

Result<std::vector<ChainStage>> CompileChainStages(
    const std::vector<const AlgOp*>& chain_root_first, const Executor& exec) {
  std::vector<ChainStage> stages;
  stages.reserve(chain_root_first.size());
  // Reverse to bottom-up application order.
  for (auto it = chain_root_first.rbegin(); it != chain_root_first.rend(); ++it) {
    const AlgOp* node = *it;
    const TupleLayout layout = CollectVars(node->input);
    ChainStage s;
    s.kind = node->kind;
    if (node->kind == AlgKind::kSelect) {
      CLEANM_ASSIGN_OR_RETURN(s.pred, CompilePredicate(node->pred, layout, exec.Env()));
    } else {
      CLEANM_ASSIGN_OR_RETURN(s.path, CompileExpr(node->path, layout, exec.Env()));
      s.var = node->path_var;
    }
    stages.push_back(std::move(s));
  }
  return stages;
}

/// Applies the compiled chain to one tuple, collecting the produced tuples.
/// Select filtering and (Outer)Unnest padding mirror the physical executor
/// exactly (pipeline.cc CompileChain): null or empty
/// list pads Null only under OuterUnnest, a non-list scalar behaves as a
/// singleton, a list iterates.
void ApplyChain(const std::vector<ChainStage>& stages, size_t i, const Value& tuple,
                std::vector<Value>* out) {
  if (i == stages.size()) {
    out->push_back(tuple);
    return;
  }
  const ChainStage& s = stages[i];
  if (s.kind == AlgKind::kSelect) {
    if (s.pred(tuple)) ApplyChain(stages, i + 1, tuple, out);
    return;
  }
  const bool outer = s.kind == AlgKind::kOuterUnnest;
  const Value coll = s.path(tuple);
  auto pad = [&](Value element) {
    ValueStruct padded = tuple.AsStruct();
    padded.emplace_back(s.var, std::move(element));
    ApplyChain(stages, i + 1, Value(std::move(padded)), out);
  };
  if (coll.is_null() ||
      (coll.type() == ValueType::kList && coll.AsList().empty())) {
    if (outer) pad(Value::Null());
    return;
  }
  if (coll.type() != ValueType::kList) {
    pad(coll);
    return;
  }
  for (const auto& element : coll.AsList()) pad(element);
}

/// Wraps a storage row into the scan's {var: record} tuple and expands it
/// through the Nest's keyed expansion. Exact-key grouping emits exactly one
/// (key, tuple) pair.
Result<Row> ExpandOne(const NestWork& w, const Schema& schema, const Row& row) {
  Value tuple(ValueStruct{{w.var, RowToRecord(schema, row)}});
  Partition pairs;
  w.compiled.expand(tuple, &pairs);
  if (pairs.size() != 1) {
    return Status::Internal("exact-key expansion produced " +
                            std::to_string(pairs.size()) + " pairs");
  }
  return std::move(pairs.front());
}

/// Finalizes one group (having-gated, 0 or 1 tuples) and runs the op's
/// transform chain over it.
std::vector<Value> GroupOutputs(const NestWork& w, const RootWork& r,
                                const Value& key, const IncrementalGroup& g) {
  Partition finalized;
  w.compiled.spec.finalize(key, g.accs, &finalized);
  std::vector<Value> out;
  for (const auto& row : finalized) {
    ApplyChain(r.stages, 0, PhysicalTupleOf(row), &out);
  }
  return out;
}

/// Drops a Nest's state and every operation baseline derived from it.
void ResetNest(IncrementalState& state, const AlgOp* nest_key) {
  state.nests.erase(nest_key);
  for (auto it = state.ops.begin(); it != state.ops.end();) {
    if (it->second.nest == nest_key) {
      it = state.ops.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace

Result<IncrementalRun> RunIncrementalValidation(IncrementalState& state,
                                                const std::vector<CleaningPlan>& plans,
                                                const std::vector<AlgOpPtr>& roots,
                                                Executor& exec, ViolationSink& sink) {
  const Catalog& catalog = *exec.catalog;
  if (plans.size() != roots.size()) {
    return Status::Internal("incremental: plan/root arity mismatch");
  }

  // Phase 0: structural eligibility + compilation — all-or-nothing.
  std::vector<RootWork> rwork(roots.size());
  std::map<const AlgOp*, NestWork> nwork;
  for (size_t i = 0; i < roots.size(); i++) {
    std::vector<const AlgOp*> chain;
    AlgOpPtr nest;
    if (!roots[i] || !AnalyzeRoot(roots[i], &chain, &nest)) {
      return IncrementalRun::kIneligible;
    }
    rwork[i].plan = &plans[i];
    rwork[i].root = roots[i].get();
    rwork[i].nest_key = nest.get();
    CLEANM_ASSIGN_OR_RETURN(rwork[i].stages, CompileChainStages(chain, exec));
    auto [it, inserted] = nwork.try_emplace(nest.get());
    if (inserted) {
      NestWork& w = it->second;
      w.nest = nest;
      w.table = nest->input->table;
      w.var = nest->input->var;
      CLEANM_ASSIGN_OR_RETURN(w.compiled, exec.CompileNestStage(nest));
    }
  }

  // The delta path only applies when the snapshot is ahead of the base by
  // mutations: every scanned table must be registered, mutated within the
  // current major epoch (minor > 0), and carry a delta log. Otherwise the
  // cold engine path is the right one (and keeps its cache-metrics
  // contract: plain re-executions never enter here).
  for (const auto& [key, w] : nwork) {
    (void)key;
    if (catalog.GenerationOf(w.table) == 0 || catalog.MinorOf(w.table) == 0 ||
        catalog.FindDelta(w.table) == nullptr) {
      return IncrementalRun::kIneligible;
    }
  }

  std::lock_guard<std::mutex> lock(state.mu);
  QueryMetrics& metrics = exec.cluster->metrics();

  // Phase 1: bind / bootstrap / validate per-Nest state.
  for (auto& [key, w] : nwork) {
    const uint64_t gen = catalog.GenerationOf(w.table);
    const uint64_t minor = catalog.MinorOf(w.table);
    const uint64_t major = catalog.MajorOf(w.table);
    auto it = state.nests.find(key);
    if (it != state.nests.end() &&
        (it->second.major != major || it->second.table != w.table ||
         it->second.version > gen)) {
      // Stale epoch (re-registration) or a state already ahead of this
      // snapshot (a concurrent execution with a newer snapshot advanced
      // it): drop it and let the engine serve this snapshot.
      ResetNest(state, key);
      it = state.nests.end();
    }
    if (it == state.nests.end()) {
      // Bootstrap: fold the base (as-registered) dataset into fresh group
      // state at the epoch's start version, gen − minor. In-place unit
      // merging is safe here — no outputs reference these accumulators yet.
      const Dataset* base = catalog.FindBase(w.table);
      if (base == nullptr) return IncrementalRun::kIneligible;
      IncrementalNestState ns;
      ns.table = w.table;
      ns.major = major;
      ns.version = gen - minor;
      for (const auto& row : base->rows()) {
        CLEANM_ASSIGN_OR_RETURN(Row pair, ExpandOne(w, base->schema(), row));
        auto [git, fresh_key] = ns.groups.try_emplace(pair[0]);
        if (fresh_key) ns.key_order.push_back(pair[0]);
        IncrementalGroup& g = git->second;
        Value unit = w.compiled.spec.init(pair);
        g.accs = g.members.empty()
                     ? std::move(unit)
                     : w.compiled.spec.merge(std::move(g.accs), unit);
        g.members.push_back(std::move(pair[1]));
      }
      it = state.nests.emplace(key, std::move(ns)).first;
    }
    w.state = &it->second;
  }

  // Phase 2: operation baselines at the nests' pre-delta versions. A
  // missing or version-skewed baseline (first incremental run, or the
  // active root set changed — e.g. the unify knob toggled) is recomputed in
  // full from the current group state.
  for (auto& r : rwork) {
    NestWork& w = nwork.at(r.nest_key);
    auto [it, inserted] = state.ops.try_emplace(r.root);
    IncrementalOpState& os = it->second;
    if (inserted || os.nest != r.nest_key || os.version != w.state->version) {
      os.nest = r.nest_key;
      os.version = w.state->version;
      os.outputs.clear();
      for (const auto& k : w.state->key_order) {
        std::vector<Value> outs = GroupOutputs(w, r, k, w.state->groups.at(k));
        if (!outs.empty()) os.outputs.emplace(k, std::move(outs));
      }
    }
  }

  // Phase 3: apply each table's delta window to its nest states.
  for (auto& [key, w] : nwork) {
    IncrementalNestState& ns = *w.state;
    const uint64_t gen = catalog.GenerationOf(w.table);
    if (ns.version == gen) continue;
    const DeltaLog* log = catalog.FindDelta(w.table);
    std::vector<Row> added, removed;
    if (!log->Collect(ns.version, gen, &added, &removed)) {
      // The log does not contiguously cover (state version, snapshot]:
      // rebuild from scratch next time.
      ResetNest(state, key);
      return IncrementalRun::kIneligible;
    }
    auto table = catalog.Find(w.table);
    if (!table.ok()) return IncrementalRun::kIneligible;
    const Schema& schema = table.value()->schema();

    // Removals: erase one Equals-matching member per removed row.
    for (const auto& row : removed) {
      CLEANM_ASSIGN_OR_RETURN(Row pair, ExpandOne(w, schema, row));
      auto git = ns.groups.find(pair[0]);
      bool erased = false;
      if (git != ns.groups.end()) {
        auto& members = git->second.members;
        for (size_t m = 0; m < members.size(); m++) {
          if (members[m].Equals(pair[1])) {
            members.erase(members.begin() + static_cast<long>(m));
            erased = true;
            break;
          }
        }
      }
      if (!erased) {
        // The log names a row the state never saw — inconsistent; rebuild.
        ResetNest(state, key);
        return IncrementalRun::kIneligible;
      }
      w.touched[pair[0]] = true;
    }

    // Additions: append members, remembering the units per key.
    std::unordered_map<Value, std::vector<Row>, IncrementalValueHash,
                       IncrementalValueEq>
        added_pairs;
    for (const auto& row : added) {
      CLEANM_ASSIGN_OR_RETURN(Row pair, ExpandOne(w, schema, row));
      auto [git, fresh_key] = ns.groups.try_emplace(pair[0]);
      if (fresh_key) ns.key_order.push_back(pair[0]);
      git->second.members.push_back(pair[1]);
      w.touched.try_emplace(pair[0], false);
      added_pairs[pair[0]].push_back(std::move(pair));
    }

    // Refresh accumulators per touched key. A key that saw a removal is
    // re-folded from its member bag (subtractive re-grouping — sidesteps
    // monoid invertibility); an adds-only key merges the new units into a
    // DeepCopy of the cached accumulator (never in place: previously
    // finalized outputs share nested storage with it).
    for (const auto& [k, had_removal] : w.touched) {
      auto git = ns.groups.find(k);
      if (git == ns.groups.end()) continue;
      IncrementalGroup& g = git->second;
      if (g.members.empty()) {
        ns.groups.erase(git);
        ns.key_order.erase(
            std::remove_if(ns.key_order.begin(), ns.key_order.end(),
                           [&](const Value& v) { return v.Equals(k); }),
            ns.key_order.end());
        continue;
      }
      if (had_removal || g.accs.is_null()) {
        // Re-fold from the member bag: after a removal (subtractive
        // re-grouping), or for a group this delta created (no cached
        // accumulator to extend).
        Value acc;
        bool first = true;
        for (const auto& member : g.members) {
          Value unit = w.compiled.spec.init(Row{k, member});
          acc = first ? std::move(unit)
                      : w.compiled.spec.merge(std::move(acc), unit);
          first = false;
        }
        g.accs = std::move(acc);
      } else {
        Value acc = g.accs.DeepCopy();
        for (const auto& pair : added_pairs[k]) {
          acc = w.compiled.spec.merge(std::move(acc), w.compiled.spec.init(pair));
        }
        g.accs = std::move(acc);
      }
    }
    metrics.delta_rows_processed += added.size() + removed.size();
    metrics.groups_remerged += w.touched.size();
    ns.version = gen;
  }

  // Phase 4: per operation — recompute touched keys, diff against the
  // baseline, and emit the retraction-tagged stream. Entity accumulation
  // matches the engine path's unified-report semantics exactly.
  std::unordered_map<Value, std::vector<std::string>, IncrementalValueHash,
                     IncrementalValueEq>
      entities;
  for (auto& r : rwork) {
    Timer op_timer;
    NestWork& w = nwork.at(r.nest_key);
    IncrementalNestState& ns = *w.state;
    IncrementalOpState& os = state.ops.at(r.root);
    const CleaningPlan& cp = *r.plan;

    CLEANM_RETURN_NOT_OK(sink.OnOpBegin(cp.op_name));

    std::vector<Value> retracted;
    std::unordered_map<Value, std::vector<char>, IncrementalValueHash,
                       IncrementalValueEq>
        fresh;  // key → per-output "new since last run" flags
    for (const auto& [k, had_removal] : w.touched) {
      (void)had_removal;
      std::vector<Value> next;
      if (auto git = ns.groups.find(k); git != ns.groups.end()) {
        next = GroupOutputs(w, r, k, git->second);
      }
      std::vector<Value> prev;
      if (auto oit = os.outputs.find(k); oit != os.outputs.end()) {
        prev = std::move(oit->second);
      }
      // Bag diff via pairwise Equals (groups produce few outputs).
      std::vector<char> prev_matched(prev.size(), 0);
      std::vector<char> next_new(next.size(), 1);
      for (size_t n = 0; n < next.size(); n++) {
        for (size_t p = 0; p < prev.size(); p++) {
          if (!prev_matched[p] && prev[p].Equals(next[n])) {
            prev_matched[p] = 1;
            next_new[n] = 0;
            break;
          }
        }
      }
      for (size_t p = 0; p < prev.size(); p++) {
        if (!prev_matched[p]) retracted.push_back(std::move(prev[p]));
      }
      if (std::any_of(next_new.begin(), next_new.end(),
                      [](char c) { return c != 0; })) {
        fresh[k] = std::move(next_new);
      }
      if (next.empty()) {
        os.outputs.erase(k);
      } else {
        os.outputs[k] = std::move(next);
      }
    }
    os.version = ns.version;

    // Retractions first, then the full current set in first-occurrence key
    // order (the engine's group-order determinism contract). The current
    // set goes through the same per-op entity deduper as the engine path;
    // retractions are not deduper-gated — each names a concrete previously
    // emitted tuple that no longer holds.
    for (const auto& v : retracted) {
      CLEANM_RETURN_NOT_OK(sink.OnViolationRetracted(cp.op_name, v));
    }
    size_t emitted = 0;
    ViolationDeduper dedup(cp);
    for (const auto& k : ns.key_order) {
      auto oit = os.outputs.find(k);
      if (oit == os.outputs.end()) continue;
      const std::vector<char>* flags = nullptr;
      if (auto fit = fresh.find(k); fit != fresh.end()) flags = &fit->second;
      for (size_t n = 0; n < oit->second.size(); n++) {
        const Value& v = oit->second[n];
        if (!dedup.ShouldEmit(v)) continue;
        const bool is_new = flags != nullptr && n < flags->size() && (*flags)[n];
        CLEANM_RETURN_NOT_OK(is_new ? sink.OnViolationNew(cp.op_name, v)
                                    : sink.OnViolation(cp.op_name, v));
        emitted++;
        for (const auto& var : cp.entity_vars) {
          auto field = v.GetField(var);
          if (!field.ok()) continue;
          const Value& entity = field.value();
          auto add = [&](const Value& e) {
            auto& ops = entities[e];
            if (ops.empty() || ops.back() != cp.op_name) ops.push_back(cp.op_name);
          };
          if (entity.type() == ValueType::kList) {
            for (const auto& e : entity.AsList()) add(e);
          } else {
            add(entity);
          }
        }
      }
    }

    OpSummary summary;
    summary.op_name = cp.op_name;
    summary.violations = emitted;
    summary.seconds = op_timer.ElapsedSeconds();
    CLEANM_RETURN_NOT_OK(sink.OnOpEnd(summary));
  }

  for (const auto& [entity, ops] : entities) {
    CLEANM_RETURN_NOT_OK(sink.OnDirtyEntity(entity, ops));
  }
  metrics.incremental_executions += 1;
  return IncrementalRun::kRan;
}

}  // namespace cleanm
