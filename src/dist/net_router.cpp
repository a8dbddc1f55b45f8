#include "dist/net_router.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/rng.hpp"
#include "shard/merge.hpp"

namespace rbc::dist {

using serve::net::ErrorCode;
using serve::net::InfoMsg;
using serve::net::RbcClient;
using serve::net::RemoteError;

namespace {

std::string endpoint_name(const Endpoint& ep) {
  return ep.host + ":" + std::to_string(ep.port);
}

/// FNV-1a over the endpoint identity — a stable, process-independent seed
/// for the breaker's deterministic jitter (splitmix64 expands it; no global
/// RNG, per common/rng.hpp's CP.3 stance).
std::uint64_t endpoint_hash(const Endpoint& ep) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : ep.host) h = (h ^ static_cast<std::uint8_t>(c)) *
                             0x100000001b3ULL;
  h = (h ^ ep.port) * 0x100000001b3ULL;
  return h;
}

std::vector<std::vector<Endpoint>> singleton_groups(
    const std::vector<Endpoint>& shards) {
  std::vector<std::vector<Endpoint>> groups;
  groups.reserve(shards.size());
  for (const Endpoint& ep : shards) groups.push_back({ep});
  return groups;
}

}  // namespace

NetRouter::NetRouter(const std::vector<Endpoint>& shards,
                     RouterOptions options)
    : NetRouter(singleton_groups(shards), options) {}

NetRouter::NetRouter(const std::vector<std::vector<Endpoint>>& shard_replicas,
                     RouterOptions options)
    : options_(options) {
  if (shard_replicas.empty())
    throw std::invalid_argument("rbc::dist::NetRouter: no shard endpoints");

  shards_.resize(shard_replicas.size());
  for (std::size_t s = 0; s < shard_replicas.size(); ++s) {
    if (shard_replicas[s].empty())
      throw std::invalid_argument("rbc::dist::NetRouter: shard " +
                                  std::to_string(s) + " has no replicas");
    for (const Endpoint& ep : shard_replicas[s])
      shards_[s].replicas.push_back(Replica{.endpoint = ep});
  }

  // One live replica per shard is required up front: its INFO is the only
  // wire-observable source for the shard's row count, without which the
  // global partition cannot be derived. Replicas that fail here start with
  // an open breaker and are probed once traffic needs them.
  std::vector<InfoMsg> infos(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    bool live = false;
    std::string last_error = "no replicas";
    for (std::size_t r = 0; r < shards_[s].replicas.size() && !live; ++r) {
      Replica& replica = shards_[s].replicas[r];
      try {
        replica.client = std::make_unique<RbcClient>(
            replica.endpoint.host, replica.endpoint.port, options_.client);
        infos[s] = replica.client->info();
        replica.validated = true;  // it *defines* the topology checked below
        shards_[s].preferred = r;
        live = true;
      } catch (const std::exception& e) {
        last_error = e.what();
        record_failure(s, replica, stats_);
      }
    }
    if (!live)
      throw std::runtime_error(
          "rbc::dist::NetRouter: shard " + std::to_string(s) +
          " has no live replica (" + last_error + ")");
  }
  validate_topology(infos);
}

void NetRouter::validate_topology(const std::vector<InfoMsg>& infos) {
  dim_ = infos.front().dim;
  metric_ = infos.front().metric;
  backend_ = infos.front().backend;
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < infos.size(); ++s) {
    if (infos[s].dim != dim_ || infos[s].metric != metric_)
      throw std::runtime_error(
          "rbc::dist::NetRouter: shard " + std::to_string(s) +
          " disagrees on dim/metric (dim " + std::to_string(infos[s].dim) +
          " metric '" + infos[s].metric + "' vs dim " + std::to_string(dim_) +
          " metric '" + metric_ + "')");
    total += infos[s].size;
  }
  size_ = static_cast<index_t>(total);

  // The id mapping is a pure function of (total, S): re-derive it and check
  // the shards actually hold those row counts, which is the only part of
  // the contract observable over the wire.
  global_ids_ = shard::partition_rows(size_, num_shards());
  for (std::size_t s = 0; s < infos.size(); ++s)
    if (global_ids_[s].size() != infos[s].size)
      throw std::runtime_error(
          "rbc::dist::NetRouter: shard " + std::to_string(s) + " holds " +
          std::to_string(infos[s].size) + " rows but the contiguous "
          "partition of " + std::to_string(size_) + " rows over " +
          std::to_string(shards_.size()) + " shards assigns it " +
          std::to_string(global_ids_[s].size()));
}

// ------------------------------------------------------- replica lifecycle --

RbcClient& NetRouter::ensure_connected(std::size_t s, Replica& replica,
                                       RouterStats& local,
                                       std::uint32_t budget_ms) {
  const bool fresh = !replica.client;
  if (fresh)
    replica.client = std::make_unique<RbcClient>(
        replica.endpoint.host, replica.endpoint.port, options_.client,
        budget_ms);
  if (!replica.validated) {
    // A replica that was down (or never seen) may have been restarted with
    // the wrong index: re-check its identity against the topology before
    // trusting a single answer from it.
    const InfoMsg info = replica.client->info(budget_ms);
    if (info.dim != dim_ || info.metric != metric_ ||
        info.size != global_ids_[s].size()) {
      replica.client.reset();
      throw std::runtime_error(
          "rbc::dist::NetRouter: replica " + endpoint_name(replica.endpoint) +
          " of shard " + std::to_string(s) +
          " reports dim " + std::to_string(info.dim) + " metric '" +
          info.metric + "' size " + std::to_string(info.size) +
          ", expected dim " + std::to_string(dim_) + " metric '" + metric_ +
          "' size " + std::to_string(global_ids_[s].size()));
    }
    replica.validated = true;
  }
  if (fresh) local.reconnects += 1;
  return *replica.client;
}

void NetRouter::record_failure(std::size_t s, Replica& replica,
                               RouterStats& local) {
  (void)s;
  local.transport_errors += 1;
  replica.client.reset();
  replica.validated = false;  // whatever comes back up must re-prove itself
  replica.consecutive_failures += 1;
  if (replica.consecutive_failures >= options_.breaker_failures) {
    replica.open_count += 1;
    replica.open_until =
        Clock::now() + std::chrono::milliseconds(open_window_ms(replica));
    local.breaker_opens += 1;
  }
}

void NetRouter::record_success(Replica& replica) {
  replica.consecutive_failures = 0;
  replica.open_count = 0;
  replica.open_until = {};
}

std::uint32_t NetRouter::open_window_ms(const Replica& replica) const {
  const int doublings = std::min(replica.open_count - 1, 10);
  std::uint64_t window = options_.breaker_base_ms;
  window <<= doublings > 0 ? doublings : 0;
  window = std::min<std::uint64_t>(window, options_.breaker_max_ms);
  // Up to +25% jitter, a pure function of (endpoint, open_count): two
  // routers watching the same dead replica still spread their probes, yet
  // every run of a seeded test sees the same schedule.
  std::uint64_t seed = endpoint_hash(replica.endpoint) ^
                       (0x9e3779b97f4a7c15ULL *
                        static_cast<std::uint64_t>(replica.open_count));
  const std::uint64_t jitter = splitmix64(seed) % (window / 4 + 1);
  return static_cast<std::uint32_t>(window + jitter);
}

// ---------------------------------------------------------- failover core --

template <class Fn>
auto NetRouter::with_failover(std::size_t s,
                              std::optional<Clock::time_point> deadline,
                              RouterStats& local, Fn&& attempt) {
  Shard& shard = shards_[s];
  const std::size_t R = shard.replicas.size();
  int overload_retries_left = options_.max_retries;
  int failovers_left = options_.max_failovers;
  std::string last_error = "no attempt made";

  const auto shard_tag = [s] {
    return "rbc::dist::NetRouter: shard " + std::to_string(s);
  };
  // Remaining budget for the next attempt, >= 1 ms (0 would mean "no
  // deadline" on the wire). Budget exhaustion is checked separately.
  const auto remaining_ms = [&]() -> std::uint32_t {
    if (!deadline) return 0;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          *deadline - Clock::now())
                          .count();
    return static_cast<std::uint32_t>(std::max<std::int64_t>(1, left));
  };
  const auto out_of_budget = [&] {
    return deadline && Clock::now() >= *deadline;
  };

  for (;;) {
    if (out_of_budget()) {
      local.deadline_exceeded += 1;
      throw std::runtime_error(shard_tag() +
                               " deadline exhausted (last error: " +
                               last_error + ")");
    }

    // Pick the next usable replica, sticky on the last one that answered;
    // endpoints with an open breaker are skipped.
    const auto now = Clock::now();
    std::size_t pick = R;
    auto soonest = Clock::time_point::max();
    for (std::size_t i = 0; i < R; ++i) {
      const std::size_t r = (shard.preferred + i) % R;
      const Replica& replica = shard.replicas[r];
      if (replica.open_until > now) {
        soonest = std::min(soonest, replica.open_until);
        continue;
      }
      pick = r;
      break;
    }
    if (pick == R) {
      // Every breaker is open. Waiting is only useful if a window expires
      // inside the budget.
      if (deadline && soonest >= *deadline) {
        local.deadline_exceeded += 1;
        throw std::runtime_error(shard_tag() +
                                 " unreachable within deadline: every "
                                 "replica breaker is open (last error: " +
                                 last_error + ")");
      }
      std::this_thread::sleep_until(soonest);
      continue;
    }

    Replica& replica = shard.replicas[pick];
    // A previously-opened breaker whose window expired admits exactly this
    // attempt as its half-open probe: success closes it, failure re-opens
    // a doubled window (record_failure).
    if (replica.open_count > 0) local.breaker_probes += 1;
    local.requests += 1;
    try {
      RbcClient& client = ensure_connected(s, replica, local, remaining_ms());
      auto result = attempt(client, remaining_ms());
      record_success(replica);
      shard.preferred = pick;
      return result;
    } catch (const RemoteError& e) {
      if (e.code() == ErrorCode::kOverloaded) {
        // The replica is alive and asking for space — honor the hint
        // instead of blaming the endpoint or failing over.
        if (overload_retries_left-- <= 0) throw;
        local.retries += 1;
        std::uint32_t sleep_ms = std::max(1u, e.retry_after_ms());
        if (deadline) sleep_ms = std::min(sleep_ms, remaining_ms());
        std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
        continue;
      }
      if (e.code() == ErrorCode::kDeadlineExceeded) {
        // The server shed the request: the budget is gone everywhere.
        local.deadline_exceeded += 1;
        throw;
      }
      if (e.code() == ErrorCode::kShuttingDown) {
        // Graceful drain: this replica is leaving; move on like any other
        // transport-level loss.
        last_error = endpoint_name(replica.endpoint) + ": " + e.what();
        record_failure(s, replica, local);
      } else {
        // kBadRequest/kInternal: the server executed-and-refused; another
        // replica would refuse identically. Caller's problem.
        throw;
      }
    } catch (const std::exception& e) {
      // Transport or framing failure: connect refused, reset, timeout,
      // malformed frame, topology mismatch on revalidation.
      last_error = endpoint_name(replica.endpoint) + ": " + e.what();
      record_failure(s, replica, local);
    }

    if (failovers_left-- <= 0)
      throw std::runtime_error(shard_tag() + " unreachable after " +
                               std::to_string(options_.max_failovers) +
                               " failovers (last error: " + last_error + ")");
    local.failovers += 1;
    shard.preferred = (pick + 1) % R;
  }
}

// -------------------------------------------------------- scatter/gather --

PartialKnnResult NetRouter::scatter_knn(const Matrix<float>& queries,
                                        index_t k, std::uint32_t deadline_ms,
                                        bool partial) {
  const index_t nq = queries.rows();
  if (nq > 0 && queries.cols() != dim_)
    throw std::invalid_argument(
        "rbc::dist::NetRouter: query dimension " +
        std::to_string(queries.cols()) + " != shard dimension " +
        std::to_string(dim_));
  if (k == 0 || k > size_)
    throw std::invalid_argument("rbc::dist::NetRouter: k = " +
                                std::to_string(k) +
                                " out of range for total size " +
                                std::to_string(size_));
  const std::size_t S = shards_.size();
  PartialKnnResult out;
  out.shards.assign(S, {});
  if (nq == 0) {
    out.result = KnnResult(0, k);
    return out;
  }
  const std::optional<Clock::time_point> deadline =
      deadline_ms > 0 ? std::optional(Clock::now() + std::chrono::milliseconds(
                                                         deadline_ms))
                      : std::nullopt;

  // Scatter: one thread per shard (each drives its own replicas; RbcClient
  // is single-threaded but exclusively owned here). Request-level failures
  // (bad request, internal, persistent overload) are fatal in every mode
  // and carried back whole; availability failures mark the shard uncovered.
  std::vector<KnnResult> fanout(S);
  std::vector<index_t> shard_k(S);
  std::vector<std::exception_ptr> fatal(S);
  std::vector<RouterStats> local(S);  // per-thread counters, summed after join
  {
    std::vector<std::thread> threads;
    threads.reserve(S);
    for (std::size_t s = 0; s < S; ++s)
      threads.emplace_back([&, s] {
        try {
          shard_k[s] = std::min<index_t>(
              k, static_cast<index_t>(global_ids_[s].size()));
          fanout[s] = with_failover(
              s, deadline, local[s],
              [&](RbcClient& client, std::uint32_t remaining) {
                return client.knn(queries, shard_k[s], remaining);
              });
        } catch (const RemoteError& e) {
          if (e.code() == ErrorCode::kDeadlineExceeded) {
            out.shards[s] = {false, e.what()};
          } else {
            fatal[s] = std::current_exception();
          }
        } catch (const std::runtime_error& e) {
          out.shards[s] = {false, e.what()};
        } catch (...) {
          fatal[s] = std::current_exception();
        }
      });
    for (std::thread& t : threads) t.join();
  }
  for (const RouterStats& l : local) {
    stats_.requests += l.requests;
    stats_.retries += l.retries;
    stats_.transport_errors += l.transport_errors;
    stats_.failovers += l.failovers;
    stats_.reconnects += l.reconnects;
    stats_.breaker_opens += l.breaker_opens;
    stats_.breaker_probes += l.breaker_probes;
    stats_.deadline_exceeded += l.deadline_exceeded;
  }
  for (const std::exception_ptr& e : fatal)
    if (e) std::rethrow_exception(e);
  if (!partial && !out.complete())
    for (std::size_t s = 0; s < S; ++s)
      if (!out.shards[s].covered)
        throw std::runtime_error("rbc::dist::NetRouter: shard " +
                                 std::to_string(s) +
                                 " uncovered: " + out.shards[s].error);

  // Trust boundary: a shard's answer is wire data. Validate its shape and
  // every shard-local id before the merge indexes global_ids_ and the
  // result matrices with them (Matrix::at is assert-only in release), so a
  // mismatched or buggy shard yields a clean error, never an out-of-bounds
  // read.
  for (std::size_t s = 0; s < S; ++s) {
    if (!out.shards[s].covered) continue;
    const KnnResult& r = fanout[s];
    if (r.ids.rows() != nq || r.ids.cols() != shard_k[s] ||
        r.dists.rows() != nq || r.dists.cols() != shard_k[s])
      throw serve::net::ProtocolError(
          "rbc::dist::NetRouter: shard " + std::to_string(s) +
          " answered a " + std::to_string(r.ids.rows()) + " x " +
          std::to_string(r.ids.cols()) + " knn block for a " +
          std::to_string(nq) + " x " + std::to_string(shard_k[s]) +
          " request");
    const index_t rows_held = static_cast<index_t>(global_ids_[s].size());
    for (index_t qi = 0; qi < nq; ++qi) {
      const index_t* row = r.ids.row(qi);
      for (index_t j = 0; j < shard_k[s]; ++j)
        if (row[j] >= rows_held)
          throw serve::net::ProtocolError(
              "rbc::dist::NetRouter: shard " + std::to_string(s) +
              " answered local id " + std::to_string(row[j]) +
              " but holds only " + std::to_string(rows_held) + " rows");
    }
  }

  // Gather: the same exact merge the in-process composite runs, over the
  // covered shards. With every shard covered this is bit-identical to
  // sharded:<inner>; with fewer, exact over what answered (short rows pad
  // with kInvalidIndex/kInfDist like any k > coverage query).
  std::vector<shard::MergeInput> inputs;
  inputs.reserve(S);
  for (std::size_t s = 0; s < S; ++s)
    if (out.shards[s].covered)
      inputs.push_back({&fanout[s], shard_k[s], &global_ids_[s]});
  out.result = shard::merge_shard_topk(nq, k, inputs);
  stats_.queries += nq;
  if (!out.complete()) stats_.partial_answers += 1;
  return out;
}

PartialRangeResult NetRouter::scatter_range(const Matrix<float>& queries,
                                            dist_t radius,
                                            std::uint32_t deadline_ms,
                                            bool partial) {
  const index_t nq = queries.rows();
  if (nq > 0 && queries.cols() != dim_)
    throw std::invalid_argument(
        "rbc::dist::NetRouter: query dimension " +
        std::to_string(queries.cols()) + " != shard dimension " +
        std::to_string(dim_));
  const std::size_t S = shards_.size();
  PartialRangeResult out;
  out.shards.assign(S, {});
  out.ids.assign(nq, {});
  if (nq == 0) return out;
  const std::optional<Clock::time_point> deadline =
      deadline_ms > 0 ? std::optional(Clock::now() + std::chrono::milliseconds(
                                                         deadline_ms))
                      : std::nullopt;

  std::vector<std::vector<std::vector<index_t>>> fanout(S);
  std::vector<std::exception_ptr> fatal(S);
  std::vector<RouterStats> local(S);
  {
    std::vector<std::thread> threads;
    threads.reserve(S);
    for (std::size_t s = 0; s < S; ++s)
      threads.emplace_back([&, s] {
        try {
          fanout[s] = with_failover(
              s, deadline, local[s],
              [&](RbcClient& client, std::uint32_t remaining) {
                return client.range(queries, radius, remaining);
              });
        } catch (const RemoteError& e) {
          if (e.code() == ErrorCode::kDeadlineExceeded) {
            out.shards[s] = {false, e.what()};
          } else {
            fatal[s] = std::current_exception();
          }
        } catch (const std::runtime_error& e) {
          out.shards[s] = {false, e.what()};
        } catch (...) {
          fatal[s] = std::current_exception();
        }
      });
    for (std::thread& t : threads) t.join();
  }
  for (const RouterStats& l : local) {
    stats_.requests += l.requests;
    stats_.retries += l.retries;
    stats_.transport_errors += l.transport_errors;
    stats_.failovers += l.failovers;
    stats_.reconnects += l.reconnects;
    stats_.breaker_opens += l.breaker_opens;
    stats_.breaker_probes += l.breaker_probes;
    stats_.deadline_exceeded += l.deadline_exceeded;
  }
  for (const std::exception_ptr& e : fatal)
    if (e) std::rethrow_exception(e);
  if (!partial)
    for (std::size_t s = 0; s < S; ++s)
      if (!out.shards[s].covered)
        throw std::runtime_error("rbc::dist::NetRouter: shard " +
                                 std::to_string(s) +
                                 " uncovered: " + out.shards[s].error);

  // Same trust boundary as knn(): check shape and id ranges before the
  // remap indexes global_ids_ with wire-supplied shard-local ids.
  for (std::size_t s = 0; s < S; ++s) {
    if (!out.shards[s].covered) continue;
    if (fanout[s].size() != static_cast<std::size_t>(nq))
      throw serve::net::ProtocolError(
          "rbc::dist::NetRouter: shard " + std::to_string(s) + " answered " +
          std::to_string(fanout[s].size()) + " range rows for " +
          std::to_string(nq) + " queries");
    const index_t rows_held = static_cast<index_t>(global_ids_[s].size());
    for (const std::vector<index_t>& hits : fanout[s])
      for (index_t local_id : hits)
        if (local_id >= rows_held)
          throw serve::net::ProtocolError(
              "rbc::dist::NetRouter: shard " + std::to_string(s) +
              " answered local id " + std::to_string(local_id) +
              " but holds only " + std::to_string(rows_held) + " rows");
  }

  // Shard servers answer with shard-local ids sorted ascending; remapping
  // through the monotone global_ids keeps each shard's run sorted, and a
  // k-way append + sort matches the in-process composite's output exactly.
  for (index_t qi = 0; qi < nq; ++qi) {
    std::vector<index_t>& hits = out.ids[qi];
    for (std::size_t s = 0; s < S; ++s) {
      if (!out.shards[s].covered) continue;
      for (index_t local_id : fanout[s][qi])
        hits.push_back(global_ids_[s][local_id]);
    }
    std::sort(hits.begin(), hits.end());
  }
  stats_.queries += nq;
  if (!out.complete()) stats_.partial_answers += 1;
  return out;
}

// ------------------------------------------------------------- public API --

KnnResult NetRouter::knn(const Matrix<float>& queries, index_t k,
                         std::uint32_t deadline_ms) {
  return std::move(
      scatter_knn(queries, k, deadline_ms, /*partial=*/false).result);
}

std::vector<std::vector<index_t>> NetRouter::range(
    const Matrix<float>& queries, dist_t radius, std::uint32_t deadline_ms) {
  return std::move(
      scatter_range(queries, radius, deadline_ms, /*partial=*/false).ids);
}

PartialKnnResult NetRouter::knn_partial(const Matrix<float>& queries,
                                        index_t k,
                                        std::uint32_t deadline_ms) {
  if (!options_.allow_partial)
    throw std::invalid_argument(
        "rbc::dist::NetRouter: knn_partial requires "
        "RouterOptions::allow_partial");
  return scatter_knn(queries, k, deadline_ms, /*partial=*/true);
}

PartialRangeResult NetRouter::range_partial(const Matrix<float>& queries,
                                            dist_t radius,
                                            std::uint32_t deadline_ms) {
  if (!options_.allow_partial)
    throw std::invalid_argument(
        "rbc::dist::NetRouter: range_partial requires "
        "RouterOptions::allow_partial");
  return scatter_range(queries, radius, deadline_ms, /*partial=*/true);
}

}  // namespace rbc::dist
