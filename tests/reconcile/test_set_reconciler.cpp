#include "reconcile/set_reconciler.hpp"

#include <gtest/gtest.h>

#include "reconcile/graphene_backend.hpp"
#include "util/random.hpp"
#include "util/sha256.hpp"

namespace graphene::reconcile {
namespace {

ItemSet random_items(std::size_t count, util::Rng& rng) {
  ItemSet out;
  while (out.size() < count) {
    ItemDigest d;
    for (std::size_t i = 0; i < d.size(); i += 8) {
      const std::uint64_t w = rng.next();
      for (std::size_t b = 0; b < 8; ++b) d[i + b] = static_cast<std::uint8_t>(w >> (8 * b));
    }
    out.insert(d);
  }
  return out;
}

/// Client holds `overlap` of the host's items plus `extra` others.
struct SyncSetup {
  ItemSet host_items;
  ItemSet client_items;
};

SyncSetup make_setup(std::size_t host_count, std::size_t overlap, std::size_t extra,
                 util::Rng& rng) {
  SyncSetup s;
  s.host_items = random_items(host_count, rng);
  std::size_t taken = 0;
  for (const ItemDigest& d : s.host_items) {
    if (taken++ >= overlap) break;
    s.client_items.insert(d);
  }
  const ItemSet extras = random_items(extra, rng);
  s.client_items.insert(extras.begin(), extras.end());
  return s;
}

TEST(SetReconciler, OfferAloneSufficesWhenClientHasSuperset) {
  util::Rng rng(1);
  const SyncSetup s = make_setup(500, 500, 500, rng);
  const auto host = make_host_backend(s.host_items, rng.next(), {});
  const auto client = make_client_backend(s.client_items, {});
  const Outcome out = client->absorb_wire(host->open(s.client_items.size()));
  ASSERT_EQ(out.status, Outcome::Status::kComplete);
  EXPECT_EQ(out.host_set, s.host_items);
}

class ReconcileOverlapSweep : public ::testing::TestWithParam<double> {};

TEST_P(ReconcileOverlapSweep, FullRoundRecoversHostSet) {
  const double overlap_frac = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(overlap_frac * 1000) + 3);
  int complete = 0;
  constexpr int kTrials = 10;
  for (int t = 0; t < kTrials; ++t) {
    const std::size_t host_count = 400;
    const auto overlap = static_cast<std::size_t>(overlap_frac * host_count);
    const SyncSetup s = make_setup(host_count, overlap, 200, rng);
    Outcome out;
    const SyncStats stats =
        reconcile_one_way(s.host_items, rng.next(), s.client_items, {}, out);
    if (stats.success) {
      ++complete;
      EXPECT_EQ(out.host_set, s.host_items);
    }
  }
  EXPECT_GE(complete, kTrials - 1);
}

INSTANTIATE_TEST_SUITE_P(Overlaps, ReconcileOverlapSweep,
                         ::testing::Values(0.0, 0.3, 0.6, 0.9, 1.0));

TEST(SetReconciler, CrliteStyleRevocationCheck) {
  // CRLite scenario (§1): a CA host publishes its revocation set; a client
  // holding last week's set plus local observations reconciles to the
  // current one.
  util::Rng rng(4);
  ItemSet revocations = random_items(1000, rng);
  ItemSet client = revocations;  // last week's copy
  const ItemSet newly_revoked = random_items(50, rng);
  revocations.insert(newly_revoked.begin(), newly_revoked.end());

  Outcome out;
  const SyncStats stats = reconcile_one_way(revocations, rng.next(), client, {}, out);
  ASSERT_TRUE(stats.success);
  for (const ItemDigest& d : newly_revoked) EXPECT_TRUE(out.host_set.count(d) > 0);
  // Far cheaper than shipping 1050 × 32-byte digests.
  EXPECT_LT(stats.total_bytes(), 1050u * 32u / 2u);
}

/// Parses `msg` and serializes it again: every message must come back as
/// the bytes it arrived as.
template <typename Msg>
void expect_round_trip(const WireMsg& msg) {
  util::ByteReader reader{util::ByteView(msg.payload)};
  const Msg parsed = Msg::deserialize(reader);
  EXPECT_TRUE(reader.done());
  EXPECT_EQ(parsed.serialize(), msg.payload);
}

TEST(SetReconciler, WireRoundTripOfAllMessages) {
  util::Rng rng(5);
  const SyncSetup s = make_setup(300, 200, 100, rng);
  const auto host = make_host_backend(s.host_items, rng.next(), {});
  const auto client = make_client_backend(s.client_items, {});

  const WireMsg offer = host->open(s.client_items.size());
  expect_round_trip<Offer>(offer);
  Outcome out = client->absorb_wire(offer);
  if (out.status == Outcome::Status::kNeedsRequest) {
    const WireMsg req = client->next_request();
    expect_round_trip<core::GrapheneRequestMsg>(req);
    const WireMsg resp = host->serve_wire(req);
    expect_round_trip<Response>(resp);
    out = client->absorb_wire(resp);
  }
  if (out.status == Outcome::Status::kNeedsFetch) {
    const WireMsg freq = client->next_request();
    expect_round_trip<core::RepairRequestMsg>(freq);
    const WireMsg fresp = host->serve_wire(freq);
    expect_round_trip<FetchResponse>(fresp);
    out = client->absorb_wire(fresp);
  }
  EXPECT_EQ(out.status, Outcome::Status::kComplete);
}

TEST(SetReconciler, ChecksumCatchesWrongFinalSet) {
  util::Rng rng(6);
  const SyncSetup s = make_setup(100, 100, 0, rng);
  const auto host = make_host_backend(s.host_items, rng.next(), {});
  const auto client = make_client_backend(s.client_items, {});
  const WireMsg opening = host->open(s.client_items.size());
  util::ByteReader reader{util::ByteView(opening.payload)};
  Offer offer = Offer::deserialize(reader);
  offer.set_checksum ^= 0xdeadbeef;  // corrupted commitment
  const Outcome out =
      client->absorb_wire({net::MessageType::kReconcileOffer, offer.serialize()});
  EXPECT_NE(out.status, Outcome::Status::kComplete);
}

TEST(SetReconciler, DigestOfIsSha256) {
  const util::Bytes payload = {1, 2, 3};
  EXPECT_EQ(digest_of(util::ByteView(payload)), util::sha256(util::ByteView(payload)));
}

TEST(SetReconciler, EmptyHostSetCompletesTrivially) {
  util::Rng rng(7);
  const ItemSet client_items = random_items(50, rng);
  const ItemSet host_items;
  const auto host = make_host_backend(host_items, rng.next(), {});
  const auto client = make_client_backend(client_items, {});
  const Outcome out = client->absorb_wire(host->open(client_items.size()));
  EXPECT_EQ(out.status, Outcome::Status::kComplete);
  EXPECT_TRUE(out.host_set.empty());
}

}  // namespace
}  // namespace graphene::reconcile
