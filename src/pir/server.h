// TPA-side PIR evaluation (paper Alg. 1, "Auditor tau: tag response").
//
// For each queried point q the server evaluates all K bitplane polynomials
// F_pi(q) and their gradients. The engine is the paper's matrix-
// representation recurrence transposed: one tag row (K bits, packed in
// 64-bit words) is XOR-accumulated word-parallel into two GF(4) component
// bitplanes, so every zero coefficient is skipped for free and the K planes
// advance together. The paper's naive and matrix (M_pi) evaluators survive
// only as the test oracle and Fig. 2 baselines in reference/pir_reference.h.
#pragma once

#include <cstdint>
#include <vector>

#include "pir/embedding.h"
#include "pir/messages.h"
#include "pir/tag_database.h"

namespace ice::simd {
struct XorKernels;
}

namespace ice::pir {

class PirServer {
 public:
  /// Non-owning views of the database and embedding; both must outlive the
  /// server and agree on n. `parallelism` is the worker-shard budget for
  /// each evaluation (ProtocolParams::parallelism convention: 0 = hardware
  /// concurrency, 1 = the exact single-threaded path); responses are
  /// bit-identical at every setting.
  PirServer(const TagDatabase& db, const Embedding& embedding,
            std::size_t parallelism = 1);

  /// Evaluates a whole query batch in ONE pass over the tag database: for
  /// each row the per-point monomial evaluations are computed once and
  /// scatter-accumulated into per-point planes (m-way accumulation instead
  /// of m full sweeps). Pinned bit-identical to the term-by-term reference
  /// evaluator by the differential tests.
  [[nodiscard]] PirResponse respond(const PirQuery& query) const;

  /// In-place respond(): reshapes `out` without discarding its entry and
  /// plane-vector capacity, so a warm response object (same m, k, gamma as
  /// the previous call) makes the steady-state batch sweep allocation-free.
  void respond_into(const PirQuery& query, PirResponse& out) const;

 private:
  const TagDatabase* db_;
  const Embedding* embedding_;
  std::size_t parallelism_;
  // The best XOR kernel tier this CPU supports, picked once by the
  // constructor (as bignum::Montgomery picks its multiply kernel).
  const simd::XorKernels* kernels_;
};

namespace detail {

/// The fused sweep behind PirServer::respond_into, on an explicit XOR
/// kernel bundle. PirServer passes the best supported tier; the tier
/// differential tests and bench_pir's portable column pass another one.
void respond_into(const TagDatabase& db, const Embedding& embedding,
                  std::size_t parallelism, const simd::XorKernels& kern,
                  const PirQuery& query, PirResponse& out);

}  // namespace detail

}  // namespace ice::pir
