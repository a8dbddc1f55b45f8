// The generic payload backend: RBC / brute force over a registered metric
// space (space.hpp) bound to a payload dataset (dataset.hpp), behind the
// unified Index interface.
//
// There is no separate registry name for it: make_index("rbc-exact",
// {.metric = "edit"}) — or "bruteforce" / "rbc-oneshot" — dispatches here
// when the metric resolves in the space registry, so callers select the
// search algorithm exactly as they do for dense builds and the payload
// path stays invisible until a payload metric is asked for.
#pragma once

#include <iosfwd>
#include <memory>

#include "api/index.hpp"

namespace rbc::metricspace {

/// The host search algorithm a generic payload index runs.
enum class Algo { kBruteForce, kRbcExact, kRbcOneShot };

/// A payload-backed index for `algo`. `options.metric` must name a
/// registered metric space and `options.storage` must be "float32"
/// (payload datasets have no dense rows to compress); violations throw
/// std::invalid_argument with the make_index error shape. The returned
/// index answers build_payload / knn_search_payload and rejects the dense
/// entry points.
std::unique_ptr<Index> make_generic(Algo algo, const IndexOptions& options);

/// Restores an index written by the generic backend's save() (the payload
/// stream, magic io::kMagicPayload — see rbc/serialize_io.hpp). The
/// unified rbc::load_index() dispatches here on the magic. Corruption
/// (unknown backend/metric tag, invalid params, truncated or oversized
/// dataset payload) throws std::runtime_error.
std::unique_ptr<Index> load_payload_index(std::istream& is);

}  // namespace rbc::metricspace
