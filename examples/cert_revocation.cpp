// Beyond blockchains (§1): CRLite-style certificate-revocation sync using
// the generic reconciliation facade. A CA-side host publishes its revocation
// set; a client that holds last week's copy reconciles to the current one
// for a few hundred bytes instead of re-downloading the list.
//
//   $ ./cert_revocation [revocations] [newly_revoked]   (defaults 50000, 300)
#include <cstdio>
#include <cstdlib>
#include <string>

#include "reconcile/set_reconciler.hpp"
#include "util/random.hpp"

namespace {

graphene::reconcile::ItemDigest cert_digest(std::uint64_t serial) {
  // Real deployments hash the certificate; the serial stands in here.
  const std::string s = "certificate-serial-" + std::to_string(serial);
  return graphene::reconcile::digest_of(graphene::util::str_bytes(s));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace graphene;
  const std::uint64_t base = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 50000;
  const std::uint64_t fresh = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 300;
  util::Rng rng(20260707);

  // Last week's revocation list, held by both sides.
  reconcile::ItemSet revoked;
  for (std::uint64_t serial = 0; serial < base; ++serial) {
    revoked.insert(cert_digest(serial));
  }
  reconcile::ItemSet client_copy = revoked;

  // This week: `fresh` newly revoked certificates, known only to the CA.
  for (std::uint64_t serial = base; serial < base + fresh; ++serial) {
    revoked.insert(cert_digest(serial));
  }

  std::printf("CA revocation set: %zu entries | client copy: %zu entries (stale by %llu)\n",
              revoked.size(), client_copy.size(), static_cast<unsigned long long>(fresh));

  reconcile::Outcome outcome;
  const reconcile::SyncStats stats =
      reconcile::reconcile_one_way(revoked, rng.next(), client_copy, {}, outcome);

  if (!stats.success) {
    std::printf("reconciliation FAILED (expected ~1/240 of runs)\n");
    return 1;
  }
  std::printf("\nclient now holds %zu revocations (request round: %s, fetch round: %s)\n",
              outcome.host_set.size(), stats.used_request_round ? "yes" : "no",
              stats.used_fetch_round ? "yes" : "no");
  // round_bytes: the offer, then each request and its response.
  std::printf("bytes per message:");
  for (const std::size_t b : stats.round_bytes) std::printf(" %zu", b);
  std::printf(" = %zu total\n", stats.total_bytes());
  const std::size_t naive = revoked.size() * 32;
  std::printf("naive full transfer: %zu bytes — graphene used %.2f%% of that\n", naive,
              100.0 * static_cast<double>(stats.total_bytes()) /
                  static_cast<double>(naive));
  return 0;
}
