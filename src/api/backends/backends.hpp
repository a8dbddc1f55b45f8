// Self-registration hooks of the built-in backends plus small helpers the
// adapters share.
//
// Each hook lives in its backend's translation unit and registers that
// backend with the global registry (idempotently). The registry calls every
// hook lazily before the first lookup, which keeps registration working even
// when the library is linked as a static archive (where a TU with only a
// self-registration static would be dropped by the linker).
#pragma once

#include <string>
#include <vector>

#include "api/metrics.hpp"
#include "api/search.hpp"
#include "bruteforce/topk.hpp"
#include "common/matrix.hpp"
#include "distance/quantized.hpp"
#include "parallel/parallel_for.hpp"

namespace rbc::backends {

void register_bruteforce();
void register_rbc_exact();
void register_rbc_oneshot();
void register_kdtree();
void register_balltree();
void register_covertree();
void register_gpu();
void register_sharded();

/// Storage validation shared by the dense-scan backends. The compressed row
/// stores (distance/quantized.hpp) implement the squared-L2 kernels only, so
/// quantized modes are accepted exactly when the metric runs the Euclidean
/// scan — "l2" directly, "cosine" as L2 over unit rows. Everything else
/// (l1, ip) supports float32 alone; the error keeps quant::require's
/// uniform shape.
inline quant::Storage require_scan_storage(const char* backend,
                                           const std::string& storage,
                                           metric::Kind kind) {
  using quant::Storage;
  if (kind == metric::Kind::kL2 || kind == metric::Kind::kCosine)
    return quant::require(
        backend, storage, {Storage::kFloat32, Storage::kFp16, Storage::kInt8});
  return quant::require(backend, storage, {Storage::kFloat32});
}

/// IndexInfo::supported_storage for a dense-scan backend under `kind`.
inline std::vector<std::string> scan_storage_names(metric::Kind kind) {
  using quant::Storage;
  if (kind == metric::Kind::kL2 || kind == metric::Kind::kCosine)
    return quant::names({Storage::kFloat32, Storage::kFp16, Storage::kInt8});
  return quant::names({Storage::kFloat32});
}

/// Batches a single-query backend (`one(q, top)` fills a TopK) across a
/// query matrix, parallel over queries, one row per task (a small batch
/// would otherwise run on one thread) — the adapter-side equivalent of the
/// batch loops the RBC indexes implement natively.
template <class SearchOne>
KnnResult batch_knn(const Matrix<float>& Q, index_t k, SearchOne&& one) {
  KnnResult result(Q.rows(), k);
  parallel_for_dynamic(0, Q.rows(), [&](index_t qi) {
    TopK top(k);
    one(Q.row(qi), top);
    top.extract_sorted(result.dists.row(qi), result.ids.row(qi));
  });
  return result;
}

}  // namespace rbc::backends
