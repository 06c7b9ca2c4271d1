// Size-optimal parameter selection for both protocols (§3.3.1, §3.3.2).
//
// The optimizers minimize the *serialized* byte size of Bloom filter + IBLT
// using ceiling-accurate discrete size functions — the paper notes (§3.3.1)
// that the continuous closed form (Eq. 3) can land up to 20% above the true
// minimum for a < 100, so we sweep the small-a region exactly and use a
// geometric grid + local refinement beyond it.
#pragma once

#include <cstdint>

#include "iblt/iblt.hpp"

namespace graphene::obs {
class Registry;
}  // namespace graphene::obs

namespace graphene::iblt {
class ParamCache;
}  // namespace graphene::iblt

namespace graphene::core {

/// Which set-reconciliation construction `reconcile::Host`/`Client` drive.
/// The choice is session-local and off the wire for existing messages:
/// kGraphene emits byte-identical Offer/Request/Response traffic, while
/// kRatelessIblt speaks the chunked coded-symbol messages instead.
enum class ReconcileBackend : std::uint8_t {
  kGraphene,      ///< Bloom + IBLT offer/repair/fetch rounds (paper §3–4)
  kRatelessIblt,  ///< rateless coded-symbol stream (arXiv 2402.02668)
};

struct ProtocolConfig {
  /// β-assurance level for all Chernoff bounds (paper default 239/240).
  double beta = 239.0 / 240.0;
  /// Target IBLT decode-failure denominator (failure rate 1/fail_denom).
  std::uint32_t fail_denom = 240;
  /// Key the 8-byte IBLT short IDs with SipHash (§6.1 hardening). When
  /// false, short IDs are the first 8 bytes of the txid.
  bool keyed_short_ids = true;
  /// FPR pinned by the receiver in the m ≈ n fallback (§3.3.2, tested
  /// efficient for 0.001–0.2).
  double near_equal_fpr = 0.1;
  /// Joint decoding of I and J when J alone leaves a 2-core (§4.2). Off only
  /// for the Fig. 16 ablation.
  bool enable_pingpong = true;
  /// Telemetry sink for counters, stage timings, and trace spans (see
  /// src/obs/). Null (the default) disables instrumentation at the cost of
  /// one branch per stage; not owned, must outlive the engines using it.
  obs::Registry* obs = nullptr;
  /// Shared memoization of param-table lookups; safe to share across
  /// concurrently-driven sessions. Null falls back to direct lookups; not
  /// owned, must outlive the engines using it.
  iblt::ParamCache* param_cache = nullptr;
  /// Set-reconciliation backend for reconcile::Host/Client sessions. Both
  /// ends must agree (the driver rejects mismatched message types).
  ReconcileBackend reconcile_backend = ReconcileBackend::kGraphene;
  /// Coded symbols in the first RatelessChunk; later chunks double. The
  /// stream is rateless, so this only tunes round trips vs. overshoot.
  std::uint32_t rateless_initial_symbols = 16;
  /// Hard ceiling on message round trips in one reconcile session; the
  /// driver aborts (kFailed) beyond it so no backend can loop forever.
  std::uint32_t reconcile_round_cap = 64;
};

/// Chosen Protocol 1 parameters for relaying n block txns to a receiver
/// holding m mempool txns.
struct Protocol1Params {
  double fpr = 1.0;             ///< f_S = a/(m−n), or 1 when m = n
  std::uint64_t a = 0;          ///< expected Bloom false positives
  std::uint64_t a_star = 1;     ///< β-assurance bound (Theorem 1)
  iblt::IbltParams iblt{};      ///< table-optimal IBLT for a_star items
  std::size_t bloom_bytes = 0;  ///< predicted serialized filter size
  std::size_t iblt_bytes = 0;   ///< predicted serialized IBLT size
  [[nodiscard]] std::size_t total_bytes() const noexcept { return bloom_bytes + iblt_bytes; }
};

/// Chosen Protocol 2 parameters (receiver side, step 2).
struct Protocol2Params {
  double fpr = 1.0;             ///< f_R = b/(n−x*)
  std::uint64_t b = 1;          ///< expected false positives through R
  std::uint64_t x_star = 0;     ///< Theorem 2 lower bound on true positives
  std::uint64_t y_star = 1;     ///< Theorem 3 upper bound on S's false positives
  iblt::IbltParams iblt{};      ///< IBLT J sized for b + y_star
  std::size_t bloom_bytes = 0;
  std::size_t iblt_bytes = 0;
  bool reversed = false;        ///< m ≈ n fallback engaged (§3.3.2)
  [[nodiscard]] std::size_t total_bytes() const noexcept { return bloom_bytes + iblt_bytes; }
};

/// Minimizes |S| + |I| over the Bloom false-positive budget a (Protocol 1).
[[nodiscard]] Protocol1Params optimize_protocol1(std::uint64_t n, std::uint64_t m,
                                                 const ProtocolConfig& cfg = {});

/// Minimizes |R| + |J| over b (Protocol 2). `z` is the receiver's candidate
/// set size, `f_s` the FPR of the Protocol 1 filter actually received.
[[nodiscard]] Protocol2Params optimize_protocol2(std::uint64_t z, std::uint64_t m,
                                                 std::uint64_t n, double f_s,
                                                 const ProtocolConfig& cfg = {});

/// Continuous-approximation optimum a = n / (8 r τ ln² 2) (Eq. 3); exposed
/// for tests that check the discrete search brackets it.
[[nodiscard]] double eq3_continuous_a(std::uint64_t n, double tau) noexcept;

}  // namespace graphene::core
