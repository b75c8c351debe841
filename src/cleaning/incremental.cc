#include "cleaning/incremental.h"

#include <algorithm>
#include <utility>

#include "physical/tuple.h"
#include "storage/delta.h"

namespace cleanm {

namespace {

using engine::Partition;

struct RootWork {
  const CleaningPlan* plan = nullptr;
  const AlgOp* root = nullptr;
  const AlgOp* nest_key = nullptr;
  /// The root's Select/Unnest chain above the Nest, compiled by the
  /// engine's CompileChain.
  engine::MorselExpand chain;
};

/// A key this execution's delta touched.
struct Touch {
  /// The key saw a removal (its accumulators are re-folded from the member
  /// bag).
  bool had_removal = false;
  /// The group's sequence number; kept here because an emptied group
  /// leaves the nest state before its outputs are retracted.
  uint64_t seq = 0;
};

struct NestWork {
  AlgOpPtr nest;
  std::string table;
  /// The snapshot's binding of `table`.
  const CatalogTable* source = nullptr;
  std::string var;
  Executor::CompiledNest compiled;
  IncrementalNestState* state = nullptr;
  std::unordered_map<Value, Touch, ValueHash, ValueEq> touched;
};

/// One table's delta window, netted (TableEpoch::Collect).
struct DeltaWindow {
  std::vector<Row> added;
  std::vector<Row> removed;
};

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
  Partition chained;
  for (const auto& row : finalized) r.chain(0, row, &chained);
  std::vector<Value> out;
  out.reserve(chained.size());
  for (const auto& row : chained) out.push_back(PhysicalTupleOf(row));
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

/// The Nest's unit for one (key, member) pair, charging its
/// registered-aggregate calls.
Value UnitOf(const NestWork& w, const Row& pair, QueryMetrics& metrics) {
  metrics.udf_calls += w.compiled.udf_units;
  return w.compiled.spec.init(pair);
}

}  // namespace

Result<IncrementalRun> RunIncrementalValidation(IncrementalState& state,
                                                const std::vector<CleaningPlan>& plans,
                                                const std::vector<AlgOpPtr>& roots,
                                                Executor& exec,
                                                ViolationReport& report) {
  const Catalog& catalog = *exec.catalog;
  if (plans.size() != roots.size()) {
    return Status::Internal("incremental: plan/root arity mismatch");
  }

  // Phase 0: structural eligibility + compilation — all-or-nothing.
  std::vector<RootWork> rwork(roots.size());
  std::map<const AlgOp*, NestWork> nwork;
  for (size_t i = 0; i < roots.size(); i++) {
    if (!roots[i]) return IncrementalRun::kIneligible;
    std::vector<const AlgOp*> chain;
    const AlgOpPtr& nest = PeelTransforms(roots[i], &chain);
    if (nest->kind != AlgKind::kNest || nest->group.algo != FilteringAlgo::kExactKey ||
        !nest->input || nest->input->kind != AlgKind::kScan) {
      return IncrementalRun::kIneligible;
    }
    rwork[i].plan = &plans[i];
    rwork[i].root = roots[i].get();
    rwork[i].nest_key = nest.get();
    CLEANM_ASSIGN_OR_RETURN(rwork[i].chain, CompileChain(chain, exec.Env()));
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
  // mutations: every scanned table must be registered with an epoch, and
  // its generation must be past the epoch's start. Otherwise the cold
  // engine path is the right one (and keeps its cache-metrics contract:
  // plain re-executions never enter here).
  for (auto& [key, w] : nwork) {
    (void)key;
    w.source = catalog.Lookup(w.table);
    if (w.source == nullptr || w.source->epoch == nullptr ||
        w.source->generation == w.source->epoch->start) {
      return IncrementalRun::kIneligible;
    }
  }

  std::lock_guard<std::mutex> lock(state.mu);
  QueryMetrics& metrics = exec.cluster->metrics();

  // Phase 1: bind / bootstrap / validate per-Nest state.
  for (auto& [key, w] : nwork) {
    const TableEpoch& epoch = *w.source->epoch;
    auto it = state.nests.find(key);
    if (it != state.nests.end() &&
        (it->second.epoch_start != epoch.start || it->second.table != w.table ||
         it->second.version > w.source->generation)) {
      // Stale epoch (re-registration) or a state already ahead of this
      // snapshot (a concurrent execution with a newer snapshot advanced
      // it): drop it and let the engine serve this snapshot.
      ResetNest(state, key);
      it = state.nests.end();
    }
    if (it == state.nests.end()) {
      // Bootstrap: fold the epoch's base (the dataset as registered) into
      // fresh group state at the epoch's start. In-place unit merging is
      // safe here — no outputs reference these accumulators yet.
      const Dataset* base = epoch.base.get();
      IncrementalNestState ns;
      ns.table = w.table;
      ns.epoch_start = epoch.start;
      ns.version = epoch.start;
      for (const auto& row : base->rows()) {
        CLEANM_ASSIGN_OR_RETURN(Row pair, ExpandOne(w, base->schema(), row));
        auto [git, fresh_key] = ns.groups.try_emplace(pair[0]);
        IncrementalGroup& g = git->second;
        if (fresh_key) g.seq = ns.next_seq++;
        Value unit = UnitOf(w, pair, metrics);
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
      for (const auto& [k, g] : w.state->groups) {
        std::vector<Value> outs = GroupOutputs(w, r, k, g);
        if (!outs.empty()) os.outputs.emplace(g.seq, std::move(outs));
      }
    }
  }

  // Phase 3: apply each table's delta window to its nest states. Nests
  // over one table at one state version share the window, so each is
  // collected once per execution.
  std::map<std::pair<std::string, uint64_t>, DeltaWindow> windows;
  for (auto& [key, w] : nwork) {
    IncrementalNestState& ns = *w.state;
    const uint64_t gen = w.source->generation;
    if (ns.version == gen) continue;
    auto [wit, unseen] = windows.try_emplace({w.table, ns.version});
    std::vector<Row>& added = wit->second.added;
    std::vector<Row>& removed = wit->second.removed;
    if (unseen && !w.source->epoch->Collect(ns.version, gen, &added, &removed)) {
      // The epoch does not cover (state version, snapshot]: rebuild from
      // scratch next time.
      ResetNest(state, key);
      return IncrementalRun::kIneligible;
    }
    const Schema& schema = w.source->data->schema();

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
      Touch& touch = w.touched[pair[0]];
      touch.had_removal = true;
      touch.seq = git->second.seq;
    }

    // Additions: append members, remembering the units per key.
    std::unordered_map<Value, std::vector<Row>, ValueHash, ValueEq> added_pairs;
    for (const auto& row : added) {
      CLEANM_ASSIGN_OR_RETURN(Row pair, ExpandOne(w, schema, row));
      auto [git, fresh_key] = ns.groups.try_emplace(pair[0]);
      IncrementalGroup& g = git->second;
      if (fresh_key) g.seq = ns.next_seq++;
      g.members.push_back(pair[1]);
      w.touched.try_emplace(pair[0], Touch{false, g.seq});
      added_pairs[pair[0]].push_back(std::move(pair));
    }

    // Refresh accumulators per touched key. A key that saw a removal is
    // re-folded from its member bag (subtractive re-grouping — sidesteps
    // monoid invertibility); an adds-only key merges the new units into a
    // DeepCopy of the cached accumulator (never in place: previously
    // finalized outputs share nested storage with it).
    for (const auto& [k, touch] : w.touched) {
      auto git = ns.groups.find(k);
      if (git == ns.groups.end()) continue;
      IncrementalGroup& g = git->second;
      if (g.members.empty()) {
        ns.groups.erase(git);
        continue;
      }
      if (touch.had_removal || g.accs.is_null()) {
        // Re-fold from the member bag: after a removal (subtractive
        // re-grouping), or for a group this delta created (no cached
        // accumulator to extend).
        Value acc;
        bool first = true;
        for (const auto& member : g.members) {
          Value unit = UnitOf(w, Row{k, member}, metrics);
          acc = first ? std::move(unit)
                      : w.compiled.spec.merge(std::move(acc), unit);
          first = false;
        }
        g.accs = std::move(acc);
      } else {
        Value acc = g.accs.DeepCopy();
        for (const auto& pair : added_pairs[k]) {
          acc = w.compiled.spec.merge(std::move(acc), UnitOf(w, pair, metrics));
        }
        g.accs = std::move(acc);
      }
    }
    metrics.delta_rows_processed += added.size() + removed.size();
    metrics.groups_remerged += w.touched.size();
    ns.version = gen;
  }

  // Phase 4: per operation — recompute touched keys, diff against the
  // baseline, and report through the engine path's ViolationReport; only
  // the retractions and the OnViolationNew tags are the validator's own.
  for (auto& r : rwork) {
    NestWork& w = nwork.at(r.nest_key);
    IncrementalNestState& ns = *w.state;
    IncrementalOpState& os = state.ops.at(r.root);
    CLEANM_RETURN_NOT_OK(report.BeginOp(*r.plan));

    std::vector<Value> retracted;
    // group seq → per-output "new since last run" flags
    std::unordered_map<uint64_t, std::vector<char>> fresh;
    for (const auto& [k, touch] : w.touched) {
      std::vector<Value> next;
      if (auto git = ns.groups.find(k); git != ns.groups.end()) {
        next = GroupOutputs(w, r, k, git->second);
      }
      std::vector<Value> prev;
      if (auto oit = os.outputs.find(touch.seq); oit != os.outputs.end()) {
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
        fresh[touch.seq] = std::move(next_new);
      }
      if (next.empty()) {
        os.outputs.erase(touch.seq);
      } else {
        os.outputs[touch.seq] = std::move(next);
      }
    }
    os.version = ns.version;

    // Retractions first, then the full current set in first-occurrence key
    // order (the engine's group-order determinism contract): ascending
    // sequence numbers, visiting only the groups that have outputs.
    for (const auto& v : retracted) CLEANM_RETURN_NOT_OK(report.Retract(v));
    for (const auto& [seq, outputs] : os.outputs) {
      const std::vector<char>* flags = nullptr;
      if (auto fit = fresh.find(seq); fit != fresh.end()) flags = &fit->second;
      for (size_t n = 0; n < outputs.size(); n++) {
        const bool is_new = flags != nullptr && n < flags->size() && (*flags)[n];
        CLEANM_RETURN_NOT_OK(report.Emit(outputs[n], is_new));
      }
    }
    CLEANM_RETURN_NOT_OK(report.EndOp());
  }
  CLEANM_RETURN_NOT_OK(report.Finish());
  metrics.incremental_executions += 1;
  return IncrementalRun::kRan;
}

}  // namespace cleanm
