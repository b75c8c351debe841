// Single source of truth for the session knobs that exist at both scopes:
// a session default in CleanDBOptions and a per-call override in
// ExecOptions (the metrics X-macro pattern — see common/metrics.h).
//
// Before this list, adding such a knob meant hand-mirroring it in three
// places (the CleanDBOptions field, the ExecOptions optional, and the
// value_or resolution at every use site), and a knob could silently miss
// one of them. Now CLEANM_SESSION_KNOBS generates the CleanDBOptions
// fields (plain, with defaults), the ExecOptions fields
// (std::optional<T>, empty = inherit the session value), and
// ResolvedExecOptions/ResolveExecOptions (the per-execution resolution) —
// a knob added here exists everywhere or nowhere.
//
// Only knobs with identical meaning at both scopes belong here. Knobs that
// exist at a single scope (CleanDBOptions::num_nodes vs
// ExecOptions::max_nodes, the deadline/quarantine/fault overrides) stay
// hand-written in their respective structs.
//
// X(type, name, default_value) — see exec_options.h / cleandb.h for the
// per-knob documentation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "storage/pagestore/page.h"

#define CLEANM_SESSION_KNOBS(X)                          \
  X(bool, unify_operations, true)                        \
  X(double, shuffle_ns_per_byte, 1.0)                    \
  X(size_t, shuffle_batch_rows, 1024)                    \
  X(size_t, morsel_rows, 4096)                           \
  X(uint64_t, buffer_pool_bytes, 0)                      \
  X(std::string, spill_dir, std::string())               \
  X(size_t, page_bytes, ::cleanm::kDefaultPageBytes)     \
  X(bool, profile, false)                                \
  X(std::string, trace_path, std::string())
