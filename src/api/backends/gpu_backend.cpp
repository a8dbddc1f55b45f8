// GPU backends behind the unified interface (paper §7.3):
//   "gpu-bf"      — device brute force, the paper's GPU baseline;
//   "gpu-oneshot" — host-built one-shot RBC uploaded once, searched with the
//                   two-kernel pipeline.
// Each index owns its SIMT device; query batches are uploaded per call and
// only the (nq x k) result comes back. Device-resident state cannot be
// persisted, so neither backend supports save (info().supports_save =
// false); gpu-oneshot users who need persistence save an "rbc-oneshot"
// index built with the same params instead.
#include <memory>
#include <stdexcept>
#include <string>

#include "api/backends/backends.hpp"
#include "api/metrics.hpp"
#include "api/registry.hpp"
#include "gpu/gpu_bf.hpp"
#include "gpu/gpu_rbc.hpp"

namespace rbc::backends {

namespace {

void check_gpu_k(index_t k, const char* backend) {
  if (k > gpu::kMaxK)
    throw std::invalid_argument(
        std::string("rbc::Index[") + backend + "]: k = " + std::to_string(k) +
        " exceeds the device kernel limit kMaxK = " +
        std::to_string(gpu::kMaxK));
}

class GpuBfBackend final : public Index {
 public:
  explicit GpuBfBackend(const IndexOptions& options)
      : device_(std::make_unique<simt::Device>(options.gpu_workers)),
        threads_per_block_(options.gpu_threads_per_block) {
    // Device kernels are fixed-function squared-L2 pipelines: l2 only,
    // float32 only (no device-side dequantizers).
    metric::require("gpu-bf", options.metric, {metric::Kind::kL2});
    quant::require("gpu-bf", options.storage, {quant::Storage::kFloat32});
  }

  void build(const Matrix<float>& X) override {
    n_ = X.rows();
    dim_ = X.cols();
    x_ = gpu::upload_matrix(*device_, X);
    built_ = true;
  }

  SearchResponse knn_search(const SearchRequest& request) const override {
    validate_knn(request, dim_, n_, built_, "gpu-bf", "l2");
    check_gpu_k(request.k, "gpu-bf");
    const gpu::GpuMatrix q = gpu::upload_matrix(*device_, *request.queries);
    SearchResponse response;
    response.knn = gpu::gpu_bf_knn(*device_, q, x_, request.k,
                                   threads_per_block_);
    if (request.options.collect_stats) {
      response.stats.queries = request.queries->rows();
      response.stats.list_dist_evals =
          static_cast<std::uint64_t>(request.queries->rows()) * n_;
    }
    return response;
  }

  IndexInfo info() const override {
    IndexInfo info;
    info.backend = "gpu-bf";
    info.size = n_;
    info.dim = dim_;
    info.exact = true;
    info.memory_bytes = x_.data.size() * sizeof(float);
    return info;
  }

 private:
  std::unique_ptr<simt::Device> device_;
  std::uint32_t threads_per_block_;
  gpu::GpuMatrix x_;
  index_t n_ = 0;
  index_t dim_ = 0;
  bool built_ = false;
};

class GpuOneShotBackend final : public Index {
 public:
  explicit GpuOneShotBackend(const IndexOptions& options)
      : device_(std::make_unique<simt::Device>(options.gpu_workers)),
        params_(options.rbc),
        threads_per_block_(options.gpu_threads_per_block) {
    metric::require("gpu-oneshot", options.metric, {metric::Kind::kL2});
    quant::require("gpu-oneshot", options.storage,
                   {quant::Storage::kFloat32});
  }

  void build(const Matrix<float>& X) override {
    // Build on the host (offline step), upload once, discard the host index.
    RbcOneShotIndex<Euclidean> host;
    host.build(X, params_);
    index_ = std::make_unique<gpu::GpuRbcOneShot>(*device_, host);
    n_ = X.rows();
  }

  SearchResponse knn_search(const SearchRequest& request) const override {
    validate_knn(request, index_ ? index_->dim() : 0, n_, index_ != nullptr,
                 "gpu-oneshot", "l2");
    check_gpu_k(request.k, "gpu-oneshot");
    const gpu::GpuMatrix q = gpu::upload_matrix(*device_, *request.queries);
    SearchResponse response;
    response.knn = index_->search(q, request.k, threads_per_block_);
    if (request.options.collect_stats) {
      response.stats.queries = request.queries->rows();
      response.stats.rep_dist_evals =
          static_cast<std::uint64_t>(request.queries->rows()) *
          index_->num_reps();
      response.stats.list_dist_evals =
          static_cast<std::uint64_t>(request.queries->rows()) *
          index_->points_per_rep();
    }
    return response;
  }

  IndexInfo info() const override {
    IndexInfo info;
    info.backend = "gpu-oneshot";
    info.size = n_;
    info.dim = index_ ? index_->dim() : 0;
    info.exact = false;  // probabilistic recall (paper Theorem 2)
    return info;
  }

 private:
  std::unique_ptr<simt::Device> device_;
  RbcParams params_;
  std::uint32_t threads_per_block_;
  std::unique_ptr<gpu::GpuRbcOneShot> index_;
  index_t n_ = 0;
};

[[maybe_unused]] const bool auto_registered = (register_gpu(), true);

}  // namespace

void register_gpu() {
  register_backend(
      {.name = "gpu-bf",
       .create = [](const IndexOptions& options) -> std::unique_ptr<Index> {
         return std::make_unique<GpuBfBackend>(options);
       }});
  register_backend(
      {.name = "gpu-oneshot",
       .create = [](const IndexOptions& options) -> std::unique_ptr<Index> {
         return std::make_unique<GpuOneShotBackend>(options);
       }});
}

}  // namespace rbc::backends
