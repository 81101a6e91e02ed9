#include <gtest/gtest.h>

#include <thread>

#include "common/clock.h"
#include "discovery/collector.h"
#include "dispatcher/dispatcher.h"
#include "net/socket.h"
#include "protocol/ftp_handler.h"
#include "protocol/gsi.h"
#include "protocol/request.h"
#include "protocol/xdr.h"
#include "storage/memfs.h"

namespace nest {
namespace {

// ---------- XDR ----------

namespace xdr = protocol::xdr;

TEST(Xdr, U32RoundTrip) {
  xdr::Encoder enc;
  enc.put_u32(0xdeadbeef);
  enc.put_u32(0);
  enc.put_u32(1);
  xdr::Decoder dec(enc.span());
  EXPECT_EQ(dec.get_u32().value(), 0xdeadbeefu);
  EXPECT_EQ(dec.get_u32().value(), 0u);
  EXPECT_EQ(dec.get_u32().value(), 1u);
  EXPECT_EQ(dec.remaining(), 0u);
}

TEST(Xdr, BigEndianWireFormat) {
  xdr::Encoder enc;
  enc.put_u32(0x01020304);
  const auto& b = enc.data();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(static_cast<unsigned char>(b[0]), 0x01);
  EXPECT_EQ(static_cast<unsigned char>(b[3]), 0x04);
}

TEST(Xdr, U64AndBool) {
  xdr::Encoder enc;
  enc.put_u64(0x0123456789abcdefull);
  enc.put_bool(true);
  enc.put_bool(false);
  xdr::Decoder dec(enc.span());
  EXPECT_EQ(dec.get_u64().value(), 0x0123456789abcdefull);
  EXPECT_TRUE(dec.get_bool().value());
  EXPECT_FALSE(dec.get_bool().value());
}

TEST(Xdr, StringPadding) {
  xdr::Encoder enc;
  enc.put_string("abcde");  // 5 bytes -> 4 length + 5 + 3 pad = 12
  EXPECT_EQ(enc.size(), 12u);
  xdr::Decoder dec(enc.span());
  EXPECT_EQ(dec.get_string().value(), "abcde");
  EXPECT_EQ(dec.remaining(), 0u);
}

TEST(Xdr, FixedOpaque) {
  xdr::Encoder enc;
  const char data[6] = {1, 2, 3, 4, 5, 6};
  enc.put_fixed(std::span<const char>(data, 6));
  EXPECT_EQ(enc.size(), 8u);  // padded to 4
  xdr::Decoder dec(enc.span());
  auto out = dec.get_fixed(6);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)[5], 6);
}

TEST(Xdr, UnderflowIsError) {
  const char two[2] = {0, 0};
  xdr::Decoder dec(std::span<const char>(two, 2));
  EXPECT_FALSE(dec.get_u32().ok());
}

TEST(Xdr, OpaqueTooLongRejected) {
  xdr::Encoder enc;
  enc.put_u32(1 << 30);  // absurd length
  xdr::Decoder dec(enc.span());
  EXPECT_FALSE(dec.get_opaque(1024).ok());
}

TEST(Xdr, RpcCallRoundTrip) {
  xdr::Encoder enc;
  xdr::encode_call(enc, 42, 100003, 2, 6);
  enc.put_u32(7);  // an argument
  xdr::Decoder dec(enc.span());
  auto call = xdr::decode_call(dec);
  ASSERT_TRUE(call.ok()) << call.error().to_string();
  EXPECT_EQ(call->xid, 42u);
  EXPECT_EQ(call->prog, 100003u);
  EXPECT_EQ(call->vers, 2u);
  EXPECT_EQ(call->proc, 6u);
  EXPECT_EQ(dec.get_u32().value(), 7u);
}

TEST(Xdr, RpcReplyRoundTrip) {
  xdr::Encoder enc;
  xdr::encode_accepted_reply(enc, 99, xdr::kAcceptSuccess);
  enc.put_u32(123);
  xdr::Decoder dec(enc.span());
  ASSERT_TRUE(xdr::decode_accepted_reply(dec, 99).ok());
  EXPECT_EQ(dec.get_u32().value(), 123u);
}

TEST(Xdr, RpcReplyXidMismatch) {
  xdr::Encoder enc;
  xdr::encode_accepted_reply(enc, 99, xdr::kAcceptSuccess);
  xdr::Decoder dec(enc.span());
  EXPECT_FALSE(xdr::decode_accepted_reply(dec, 100).ok());
}

TEST(Xdr, RpcProgUnavailSurfaces) {
  xdr::Encoder enc;
  xdr::encode_accepted_reply(enc, 7, xdr::kAcceptProgUnavail);
  xdr::Decoder dec(enc.span());
  EXPECT_FALSE(xdr::decode_accepted_reply(dec, 7).ok());
}

// ---------- GSI (simulated) ----------

TEST(Gsi, VerifiesKnownSubject) {
  protocol::GsiRegistry gsi;
  gsi.add_user("alice", "secret", {"physics"});
  const std::string challenge = gsi.make_challenge();
  const std::string response =
      protocol::GsiRegistry::respond("secret", challenge);
  auto p = gsi.verify("alice", challenge, response, "chirp");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->name, "alice");
  EXPECT_TRUE(p->authenticated);
  ASSERT_EQ(p->groups.size(), 1u);
  EXPECT_EQ(p->groups[0], "physics");
  EXPECT_EQ(p->protocol, "chirp");
}

TEST(Gsi, RejectsWrongSecret) {
  protocol::GsiRegistry gsi;
  gsi.add_user("alice", "secret");
  const std::string challenge = gsi.make_challenge();
  EXPECT_FALSE(gsi.verify("alice", challenge,
                          protocol::GsiRegistry::respond("wrong", challenge),
                          "chirp")
                   .ok());
}

TEST(Gsi, RejectsUnknownSubject) {
  protocol::GsiRegistry gsi;
  EXPECT_FALSE(gsi.verify("mallory", "c", "r", "chirp").ok());
  EXPECT_FALSE(gsi.has_user("mallory"));
}

TEST(Gsi, ChallengesAreFresh) {
  protocol::GsiRegistry gsi;
  EXPECT_NE(gsi.make_challenge(), gsi.make_challenge());
}

TEST(Gsi, ResponseDependsOnChallenge) {
  EXPECT_NE(protocol::GsiRegistry::respond("s", "c1"),
            protocol::GsiRegistry::respond("s", "c2"));
  EXPECT_NE(protocol::GsiRegistry::respond("s1", "c"),
            protocol::GsiRegistry::respond("s2", "c"));
}

// ---------- Mode E framing ----------

TEST(ModeE, RoundTripOverLoopback) {
  auto listener = net::TcpListener::bind(0);
  ASSERT_TRUE(listener.ok());
  const uint16_t port = listener->port();
  std::thread sender([port] {
    auto out = net::TcpStream::connect("127.0.0.1", port);
    ASSERT_TRUE(out.ok());
    const std::string block1 = "first block";
    const std::string block2 = "second";
    protocol::ModeEBlock::send(
        *out, std::span<const char>(block1.data(), block1.size()), 0, false)
        .ok();
    protocol::ModeEBlock::send(
        *out, std::span<const char>(block2.data(), block2.size()), 100,
        false)
        .ok();
    protocol::ModeEBlock::send(*out, {}, 106, true).ok();
  });
  auto in = listener->accept();
  ASSERT_TRUE(in.ok());
  std::vector<char> data;
  std::int64_t offset = -1;
  auto more = protocol::ModeEBlock::recv(*in, data, offset);
  ASSERT_TRUE(more.ok());
  EXPECT_TRUE(*more);
  EXPECT_EQ(std::string(data.begin(), data.end()), "first block");
  EXPECT_EQ(offset, 0);
  more = protocol::ModeEBlock::recv(*in, data, offset);
  ASSERT_TRUE(more.ok());
  EXPECT_EQ(offset, 100);
  more = protocol::ModeEBlock::recv(*in, data, offset);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);  // EOF block
  EXPECT_TRUE(data.empty());
  sender.join();
}

// ---------- Dispatcher ----------

storage::Principal auth_user() {
  return storage::Principal{.name = "u",
                            .groups = {},
                            .authenticated = true,
                            .protocol = "chirp"};
}

class DispatcherTest : public ::testing::Test {
 protected:
  DispatcherTest()
      : storage_(clock_, std::make_unique<storage::MemFs>(clock_, 1'000'000),
                 storage::StorageOptions{.lot_capacity = 1'000'000}),
        tm_(clock_, transfer::TransferManager::Options{}),
        dispatcher_(clock_, storage_, tm_) {}

  protocol::NestRequest req(protocol::NestOp op, const std::string& path) {
    protocol::NestRequest r;
    r.op = op;
    r.path = path;
    r.principal = auth_user();
    r.protocol = "chirp";
    return r;
  }

  ManualClock clock_;
  storage::StorageManager storage_;
  transfer::TransferManager tm_;
  dispatcher::Dispatcher dispatcher_;
};

TEST_F(DispatcherTest, RoutesStorageOps) {
  EXPECT_TRUE(dispatcher_.execute(req(protocol::NestOp::mkdir, "/d"))
                  .status.ok());
  auto st = dispatcher_.execute(req(protocol::NestOp::stat, "/d"));
  EXPECT_TRUE(st.status.ok());
  EXPECT_NE(st.text.find("dir"), std::string::npos);
  auto ls = dispatcher_.execute(req(protocol::NestOp::list, "/"));
  EXPECT_TRUE(ls.status.ok());
  EXPECT_NE(ls.text.find("d "), std::string::npos);
  EXPECT_TRUE(dispatcher_.execute(req(protocol::NestOp::rmdir, "/d"))
                  .status.ok());
}

TEST_F(DispatcherTest, RejectsTransferOpsInExecute) {
  EXPECT_FALSE(dispatcher_.execute(req(protocol::NestOp::get, "/f"))
                   .status.ok());
  EXPECT_FALSE(dispatcher_.execute(req(protocol::NestOp::put, "/f"))
                   .status.ok());
}

TEST_F(DispatcherTest, LotOpsThroughDispatcher) {
  auto create = req(protocol::NestOp::lot_create, "");
  create.lot_capacity = 1000;
  create.lot_duration = kSecond;
  const auto r = dispatcher_.execute(create);
  ASSERT_TRUE(r.status.ok()) << r.status.to_string();
  const auto lot_id = static_cast<std::uint64_t>(r.value);
  auto query = req(protocol::NestOp::lot_query, "");
  query.lot_id = lot_id;
  const auto q = dispatcher_.execute(query);
  EXPECT_TRUE(q.status.ok());
  EXPECT_NE(q.text.find("capacity=1000"), std::string::npos);
  auto term = req(protocol::NestOp::lot_terminate, "");
  term.lot_id = lot_id;
  EXPECT_TRUE(dispatcher_.execute(term).status.ok());
}

TEST_F(DispatcherTest, ApproveRoutesThroughStorageManager) {
  auto put = req(protocol::NestOp::put, "/f");
  put.size = 100;
  auto ticket = dispatcher_.approve_put(put);
  ASSERT_TRUE(ticket.ok());
  EXPECT_EQ(ticket->size, 100);
  auto get = req(protocol::NestOp::get, "/f");
  EXPECT_TRUE(dispatcher_.approve_get(get).ok());
  auto anon_put = put;
  anon_put.principal = storage::Principal{.name = "",
                                          .groups = {},
                                          .authenticated = false,
                                          .protocol = "http"};
  EXPECT_EQ(dispatcher_.approve_put(anon_put).code(),
            Errc::permission_denied);
}

TEST_F(DispatcherTest, SnapshotAdHasTransferState) {
  const auto ad = dispatcher_.snapshot_ad();
  EXPECT_EQ(ad.eval_string("Type").value(), "Storage");
  EXPECT_EQ(ad.eval_int("ActiveTransfers").value(), 0);
  EXPECT_EQ(ad.eval_string("Scheduler").value(), "fifo");
}

TEST_F(DispatcherTest, AdvertisesDataAvailability) {
  // Paper Section 2.1: the dispatcher consolidates "resource and data
  // availability" — replica selection matchmakes on the Files list.
  ASSERT_TRUE(storage_.mkdir(auth_user(), "/data").ok());
  auto t = storage_.approve_write(auth_user(), "/data/input.dat", 10);
  ASSERT_TRUE(t.ok());
  const auto ad = dispatcher_.snapshot_ad();
  EXPECT_EQ(ad.eval_int("FileCount").value(), 1);
  EXPECT_FALSE(ad.eval_bool("FilesTruncated").value());
  // A replica-selection query matches only ads holding the input.
  discovery::Collector collector(clock_);
  dispatcher_.publish_once(collector);
  auto query = classad::ClassAd::parse(
      "[ Requirements = member(\"/data/input.dat\", other.Files); ]");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(collector.match(*query).size(), 1u);
  auto miss = classad::ClassAd::parse(
      "[ Requirements = member(\"/elsewhere.dat\", other.Files); ]");
  EXPECT_TRUE(collector.match(*miss).empty());
}

TEST_F(DispatcherTest, FileListingIsCapped) {
  for (int i = 0; i < 70; ++i) {
    ASSERT_TRUE(storage_
                    .approve_write(auth_user(),
                                   "/f" + std::to_string(i), 1)
                    .ok());
  }
  const auto ad = dispatcher_.snapshot_ad();
  EXPECT_EQ(ad.eval_int("FileCount").value(), 70);
  EXPECT_TRUE(ad.eval_bool("FilesTruncated").value());
  EXPECT_EQ(ad.eval("Files").as_list()->size(), 64u);
}

TEST_F(DispatcherTest, PublishesIntoCollector) {
  discovery::Collector collector(clock_);
  dispatcher_.publish_once(collector);
  EXPECT_EQ(collector.size(), 1u);
  auto ad = collector.lookup("nest");
  ASSERT_TRUE(ad.has_value());
  EXPECT_EQ(ad->eval_string("Type").value(), "Storage");
}

// ---------- Discovery ----------

TEST(Collector, AdvertiseLookupWithdraw) {
  ManualClock clock;
  discovery::Collector collector(clock);
  auto ad = classad::ClassAd::parse("[ Type = \"Storage\"; Free = 10; ]");
  collector.advertise("nest@site", *ad);
  EXPECT_EQ(collector.size(), 1u);
  EXPECT_TRUE(collector.lookup("nest@site").has_value());
  collector.withdraw("nest@site");
  EXPECT_FALSE(collector.lookup("nest@site").has_value());
}

TEST(Collector, AdsExpire) {
  ManualClock clock;
  discovery::Collector collector(clock, /*ad_lifetime=*/10 * kSecond);
  auto ad = classad::ClassAd::parse("[ Type = \"Storage\"; ]");
  collector.advertise("n", *ad);
  clock.advance(11 * kSecond);
  EXPECT_FALSE(collector.lookup("n").has_value());
  EXPECT_EQ(collector.size(), 0u);
  // Refresh revives.
  collector.advertise("n", *ad);
  EXPECT_TRUE(collector.lookup("n").has_value());
}

TEST(Collector, MatchRanksCandidates) {
  ManualClock clock;
  discovery::Collector collector(clock);
  collector.advertise("small", *classad::ClassAd::parse(
                                   "[ Type = \"Storage\"; Free = 10; ]"));
  collector.advertise("big", *classad::ClassAd::parse(
                                 "[ Type = \"Storage\"; Free = 100; ]"));
  collector.advertise("other", *classad::ClassAd::parse(
                                   "[ Type = \"Compute\"; ]"));
  auto query = classad::ClassAd::parse(
      "[ Requirements = other.Type == \"Storage\" && other.Free >= 5; "
      "Rank = other.Free; ]");
  const auto matches = collector.match(*query);
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0], "big");  // higher Rank first
  EXPECT_EQ(matches[1], "small");
}

TEST(Collector, TwoWayMatchRespectsAdRequirements) {
  ManualClock clock;
  discovery::Collector collector(clock);
  collector.advertise(
      "picky", *classad::ClassAd::parse(
                   "[ Type = \"Storage\"; "
                   "Requirements = other.Owner == \"alice\"; ]"));
  auto bob_query = classad::ClassAd::parse(
      "[ Owner = \"bob\"; Requirements = other.Type == \"Storage\"; ]");
  EXPECT_TRUE(collector.match(*bob_query).empty());
  auto alice_query = classad::ClassAd::parse(
      "[ Owner = \"alice\"; Requirements = other.Type == \"Storage\"; ]");
  EXPECT_EQ(collector.match(*alice_query).size(), 1u);
}

TEST(RequestOps, OpNamesAreStable) {
  EXPECT_STREQ(protocol::op_name(protocol::NestOp::get), "get");
  EXPECT_STREQ(protocol::op_name(protocol::NestOp::lot_create),
               "lot_create");
  EXPECT_STREQ(protocol::op_name(protocol::NestOp::acl_set), "acl_set");
}

}  // namespace
}  // namespace nest
