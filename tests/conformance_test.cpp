// Protocol-conformance matrix (CTest label `conformance`).
//
// The virtual-protocol promise of the paper (Section 3) is that every
// wire protocol maps onto the same NestRequest core, so the same op
// script — mkdir / put / get / list / delete plus a lot reservation —
// must leave byte-identical storage state no matter which protocol
// carried it, and shared failure cases must surface as equivalent error
// codes (no such file, ACL denied, space exhausted).
//
// Each protocol drives the ops its wire actually has; ops a protocol
// lacks (e.g. HTTP mkdir/list, lot management outside Chirp) go through
// an authenticated Chirp *control* client, exactly as Grid tooling does
// against a real NeST. State verification always goes through the
// control client, so the comparison is independent of the driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "client/chirp_client.h"
#include "client/ftp_client.h"
#include "client/http_client.h"
#include "client/nfs_client.h"
#include "server/nest_server.h"

namespace nest {
namespace {

using client::ChirpClient;
using client::FtpClient;
using client::HttpClient;
using client::NfsClient;

std::string conf_payload() {
  std::string data(64 * 1024, '\0');
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>((i * 131 + 7) & 0xff);
  }
  return data;
}

// A protocol's op surface, expressed uniformly. Unset operations fall
// back to the Chirp control client (recorded per-protocol below so the
// matrix stays honest about what each wire can express).
struct Driver {
  std::string name;
  std::function<Status(const std::string&)> mkdir;
  std::function<Status(const std::string&, const std::string&)> put;
  std::function<Result<std::string>(const std::string&)> get;
  std::function<Result<std::vector<std::string>>(const std::string&)> list;
  std::function<Status(const std::string&)> remove;
};

// Recursive state capture through the control client: sorted
// "path kind size contents-hash" lines, root-relative so trees rooted at
// different directories compare equal.
void capture_state(ChirpClient& c, const std::string& dir,
                   const std::string& rel, std::vector<std::string>& out) {
  auto names = c.list(dir);
  ASSERT_TRUE(names.ok()) << dir << ": " << names.error().to_string();
  for (const auto& n : *names) {
    const std::string full = dir + "/" + n;
    const std::string relpath = rel.empty() ? n : rel + "/" + n;
    auto st = c.stat(full);
    ASSERT_TRUE(st.ok()) << full;
    if (st->is_dir) {
      out.push_back("d " + relpath);
      capture_state(c, full, relpath, out);
    } else {
      auto data = c.get(full);
      ASSERT_TRUE(data.ok()) << full;
      std::size_t hash = std::hash<std::string>{}(*data);
      out.push_back("f " + relpath + " " + std::to_string(data->size()) +
                    " " + std::to_string(hash));
    }
  }
  std::sort(out.begin(), out.end());
}

std::vector<std::string> parse_list_lines(const std::string& text) {
  std::vector<std::string> names;
  std::string line;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == '\n') {
      // "d|f <size> <name>"
      const auto a = line.find(' ');
      const auto b = line.find(' ', a + 1);
      if (a != std::string::npos && b != std::string::npos) {
        names.push_back(line.substr(b + 1));
      }
      line.clear();
    } else {
      line += text[i];
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

class ConformanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server::NestServerOptions o;
    o.capacity = 50'000'000;
    auto s = server::NestServer::start(std::move(o));
    ASSERT_TRUE(s.ok()) << s.error().to_string();
    server_ = std::move(*s);
    server_->gsi().add_user("alice", "s");
  }
  void TearDown() override {
    if (server_) server_->stop();
  }

  Result<ChirpClient> control() {
    return ChirpClient::connect("127.0.0.1", server_->chirp_port(), "alice",
                                "s");
  }
  Result<ChirpClient> anon() {
    return ChirpClient::connect("127.0.0.1", server_->chirp_port());
  }

  // Make `root` writable by the anonymous principal every non-Chirp
  // protocol authenticates as.
  void make_open_root(ChirpClient& c, const std::string& root) {
    ASSERT_TRUE(c.mkdir(root).ok());
    ASSERT_TRUE(
        c.acl_set(root,
                  "[ Principal = \"system:anyuser\"; Rights = \"rwlid\"; ]")
            .ok());
  }

  // The shared op script: one lot reservation cycle through the control
  // client, then mkdir / put / get / list / delete through the driver.
  // Leaves root/d/keep.bin as the terminal state.
  void run_script(Driver& d, ChirpClient& ctrl, const std::string& root) {
    SCOPED_TRACE(d.name);
    // Lot reservation rides along on every protocol's script via the
    // control path — only Chirp's wire has lot verbs (paper Section 5).
    auto lot = ctrl.lot_create(100'000, 60);
    ASSERT_TRUE(lot.ok()) << lot.error().to_string();
    EXPECT_TRUE(ctrl.lot_query(*lot).ok());

    const std::string dir = root + "/d";
    auto do_mkdir = d.mkdir ? d.mkdir
                            : [&](const std::string& p) {
                                return ctrl.mkdir(p);
                              };
    ASSERT_TRUE(do_mkdir(dir).ok()) << d.name << " mkdir";

    const std::string payload = conf_payload();
    ASSERT_TRUE(d.put(dir + "/file.bin", payload).ok()) << d.name << " put";

    auto got = d.get(dir + "/file.bin");
    ASSERT_TRUE(got.ok()) << d.name << " get";
    EXPECT_TRUE(*got == payload) << d.name << ": payload mismatch";

    auto do_list = d.list ? d.list
                          : [&](const std::string& p)
                        -> Result<std::vector<std::string>> {
                                auto r = ctrl.list(p);
                                if (!r.ok()) return r.error();
                                auto v = *r;
                                std::sort(v.begin(), v.end());
                                return v;
                              };
    auto names = do_list(dir);
    ASSERT_TRUE(names.ok()) << d.name << " list";
    ASSERT_EQ(names->size(), 1u);
    EXPECT_EQ((*names)[0], "file.bin");

    ASSERT_TRUE(d.put(dir + "/keep.bin", payload).ok());
    ASSERT_TRUE(d.remove(dir + "/file.bin").ok()) << d.name << " delete";

    EXPECT_TRUE(ctrl.lot_terminate(*lot).ok());
  }

  Driver chirp_driver(ChirpClient& c) {
    Driver d;
    d.name = "chirp";
    d.mkdir = [&c](const std::string& p) { return c.mkdir(p); };
    d.put = [&c](const std::string& p, const std::string& data) {
      return c.put(p, data);
    };
    d.get = [&c](const std::string& p) { return c.get(p); };
    d.list = [&c](const std::string& p) -> Result<std::vector<std::string>> {
      auto r = c.list(p);
      if (!r.ok()) return r.error();
      auto v = *r;
      std::sort(v.begin(), v.end());
      return v;
    };
    d.remove = [&c](const std::string& p) { return c.unlink(p); };
    return d;
  }

  Driver http_driver(HttpClient& c) {
    Driver d;
    d.name = "http";
    // HTTP/1.0 has no mkdir or list verb: control client covers those.
    d.put = [&c](const std::string& p, const std::string& data) -> Status {
      auto r = c.put(p, data);
      if (!r.ok()) return Status{r.error()};
      if (r->status / 100 != 2)
        return Status{Errc::io_error, "http " + std::to_string(r->status)};
      return {};
    };
    d.get = [&c](const std::string& p) -> Result<std::string> {
      auto r = c.get(p);
      if (!r.ok()) return r.error();
      if (r->status != 200)
        return Error{Errc::io_error, "http " + std::to_string(r->status)};
      return r->body;
    };
    d.remove = [&c](const std::string& p) -> Status {
      auto r = c.del(p);
      if (!r.ok()) return Status{r.error()};
      if (r->status / 100 != 2)
        return Status{Errc::io_error, "http " + std::to_string(r->status)};
      return {};
    };
    return d;
  }

  Driver ftp_driver(FtpClient& c) {
    Driver d;
    d.name = "ftp";
    d.mkdir = [&c](const std::string& p) { return c.mkd(p); };
    d.put = [&c](const std::string& p, const std::string& data) {
      return c.stor(p, data);
    };
    d.get = [&c](const std::string& p) -> Result<std::string> {
      return c.retr(p);
    };
    d.list = [&c](const std::string& p) -> Result<std::vector<std::string>> {
      auto r = c.list(p);
      if (!r.ok()) return r.error();
      return parse_list_lines(*r);
    };
    d.remove = [&c](const std::string& p) { return c.dele(p); };
    return d;
  }

  // NFS addresses by handle, not path: the driver resolves each path
  // under the mounted root with LOOKUPs, like a real kernel client.
  Driver nfs_driver(NfsClient& c, const NfsClient::Fh& root_fh,
                    const std::string& root_path) {
    auto resolve = [&c, root_fh, root_path](
                       const std::string& full) -> Result<NfsClient::Fh> {
      std::string rel = full.substr(root_path.size());
      NfsClient::Fh fh = root_fh;
      std::size_t i = 0;
      while (i < rel.size()) {
        while (i < rel.size() && rel[i] == '/') ++i;
        std::size_t j = rel.find('/', i);
        if (j == std::string::npos) j = rel.size();
        if (j > i) {
          auto next = c.lookup(fh, rel.substr(i, j - i));
          if (!next.ok()) return next.error();
          fh = next->first;
        }
        i = j;
      }
      return fh;
    };
    auto split = [](const std::string& full) {
      const auto slash = full.rfind('/');
      return std::pair(full.substr(0, slash), full.substr(slash + 1));
    };
    Driver d;
    d.name = "nfs";
    d.mkdir = [&c, resolve, split](const std::string& p) -> Status {
      auto [parent, name] = split(p);
      auto fh = resolve(parent);
      if (!fh.ok()) return Status{fh.error()};
      auto r = c.mkdir(*fh, name);
      return r.ok() ? Status{} : Status{r.error()};
    };
    d.put = [&c, resolve, split](const std::string& p,
                                 const std::string& data) -> Status {
      auto [parent, name] = split(p);
      auto fh = resolve(parent);
      if (!fh.ok()) return Status{fh.error()};
      return c.write_file(*fh, name, data);
    };
    d.get = [&c, resolve, split](const std::string& p)
        -> Result<std::string> {
      auto [parent, name] = split(p);
      auto fh = resolve(parent);
      if (!fh.ok()) return fh.error();
      return c.read_file(*fh, name);
    };
    d.list = [&c, resolve](const std::string& p)
        -> Result<std::vector<std::string>> {
      auto fh = resolve(p);
      if (!fh.ok()) return fh.error();
      auto names = c.readdir(*fh);
      if (!names.ok()) return names.error();
      std::sort(names->begin(), names->end());
      return *names;
    };
    d.remove = [&c, resolve, split](const std::string& p) -> Status {
      auto [parent, name] = split(p);
      auto fh = resolve(parent);
      if (!fh.ok()) return Status{fh.error()};
      return c.remove(*fh, name);
    };
    return d;
  }

  std::unique_ptr<server::NestServer> server_;
};

// ---------- The matrix: same script, same final state ----------

TEST_F(ConformanceTest, SameScriptSameStateAcrossProtocols) {
  auto ctrl = control();
  ASSERT_TRUE(ctrl.ok()) << ctrl.error().to_string();

  std::map<std::string, std::vector<std::string>> states;

  {
    auto c = anon();
    ASSERT_TRUE(c.ok());
    make_open_root(*ctrl, "/conf_chirp");
    Driver d = chirp_driver(*c);
    run_script(d, *ctrl, "/conf_chirp");
    capture_state(*ctrl, "/conf_chirp", "", states["chirp"]);
  }
  {
    HttpClient c("127.0.0.1", server_->http_port());
    make_open_root(*ctrl, "/conf_http");
    Driver d = http_driver(c);
    run_script(d, *ctrl, "/conf_http");
    capture_state(*ctrl, "/conf_http", "", states["http"]);
  }
  {
    auto c = FtpClient::connect("127.0.0.1", server_->ftp_port());
    ASSERT_TRUE(c.ok()) << c.error().to_string();
    make_open_root(*ctrl, "/conf_ftp");
    Driver d = ftp_driver(*c);
    run_script(d, *ctrl, "/conf_ftp");
    capture_state(*ctrl, "/conf_ftp", "", states["ftp"]);
  }
  {
    auto c = NfsClient::connect("127.0.0.1", server_->nfs_port());
    ASSERT_TRUE(c.ok()) << c.error().to_string();
    make_open_root(*ctrl, "/conf_nfs");
    auto root_fh = c->mount("/conf_nfs");
    ASSERT_TRUE(root_fh.ok()) << root_fh.error().to_string();
    Driver d = nfs_driver(*c, *root_fh, "/conf_nfs");
    run_script(d, *ctrl, "/conf_nfs");
    capture_state(*ctrl, "/conf_nfs", "", states["nfs"]);
  }

  // Every protocol's terminal state is byte-identical (same tree, same
  // sizes, same content hashes).
  const auto& reference = states["chirp"];
  ASSERT_FALSE(reference.empty());
  for (const auto& [proto, state] : states) {
    EXPECT_EQ(state, reference) << proto << " diverged from chirp";
  }
}

// ---------- Error-code equivalence for shared failures ----------

TEST_F(ConformanceTest, MissingFileIsNotFoundEverywhere) {
  auto c = anon();
  ASSERT_TRUE(c.ok());
  auto r = c->get("/definitely/missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::not_found) << "chirp";

  HttpClient http("127.0.0.1", server_->http_port());
  auto hr = http.get("/definitely/missing");
  ASSERT_TRUE(hr.ok());
  EXPECT_EQ(hr->status, 404) << "http";

  auto ftp = FtpClient::connect("127.0.0.1", server_->ftp_port());
  ASSERT_TRUE(ftp.ok());
  auto fr = ftp->retr("/definitely/missing");
  ASSERT_FALSE(fr.ok());
  EXPECT_EQ(fr.error().code, Errc::not_found) << "ftp";

  auto nfs = NfsClient::connect("127.0.0.1", server_->nfs_port());
  ASSERT_TRUE(nfs.ok());
  auto root = nfs->mount("/");
  ASSERT_TRUE(root.ok());
  auto nr = nfs->lookup(*root, "definitely-missing");
  ASSERT_FALSE(nr.ok());
  EXPECT_EQ(nr.error().code, Errc::not_found) << "nfs";
}

TEST_F(ConformanceTest, AclDeniedIsPermissionDeniedEverywhere) {
  auto ctrl = control();
  ASSERT_TRUE(ctrl.ok());
  // A directory with the default ACL: authuser rwlida, anyuser rl — so
  // anonymous writes are denied on every wire.
  ASSERT_TRUE(ctrl->mkdir("/locked").ok());
  const std::string body = "denied";

  auto c = anon();
  ASSERT_TRUE(c.ok());
  auto cs = c->put("/locked/f", body);
  ASSERT_FALSE(cs.ok());
  EXPECT_EQ(cs.code(), Errc::permission_denied) << "chirp";

  HttpClient http("127.0.0.1", server_->http_port());
  auto hr = http.put("/locked/f", body);
  ASSERT_TRUE(hr.ok());
  EXPECT_EQ(hr->status, 403) << "http";

  auto ftp = FtpClient::connect("127.0.0.1", server_->ftp_port());
  ASSERT_TRUE(ftp.ok());
  auto fs = ftp->stor("/locked/f", body);
  ASSERT_FALSE(fs.ok());
  EXPECT_EQ(fs.code(), Errc::permission_denied) << "ftp";

  auto nfs = NfsClient::connect("127.0.0.1", server_->nfs_port());
  ASSERT_TRUE(nfs.ok());
  auto root = nfs->mount("/locked");
  ASSERT_TRUE(root.ok());
  auto nr = nfs->create(*root, "f");
  ASSERT_FALSE(nr.ok());
  EXPECT_EQ(nr.error().code, Errc::permission_denied) << "nfs";

  // Nothing slipped through on any wire.
  auto names = ctrl->list("/locked");
  ASSERT_TRUE(names.ok());
  EXPECT_TRUE(names->empty());
}

class ConformanceSmallServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server::NestServerOptions o;
    o.capacity = 200'000;  // tiny appliance: space exhausts quickly
    auto s = server::NestServer::start(std::move(o));
    ASSERT_TRUE(s.ok()) << s.error().to_string();
    server_ = std::move(*s);
    server_->gsi().add_user("alice", "s");
  }
  void TearDown() override {
    if (server_) server_->stop();
  }
  std::unique_ptr<server::NestServer> server_;
};

TEST_F(ConformanceSmallServerTest, SpaceExhaustedIsNoSpaceEverywhere) {
  auto ctrl = ChirpClient::connect("127.0.0.1", server_->chirp_port(),
                                   "alice", "s");
  ASSERT_TRUE(ctrl.ok());
  ASSERT_TRUE(ctrl->mkdir("/open").ok());
  ASSERT_TRUE(
      ctrl->acl_set("/open",
                    "[ Principal = \"system:anyuser\"; Rights = \"rwlid\"; ]")
          .ok());
  // Reserve most of the appliance with a guaranteed lot and fill it —
  // lotless writes are admitted against capacity minus reservations, so
  // this leaves ~20 KB of admissible space for everyone else.
  ASSERT_TRUE(ctrl->lot_create(180'000, 600).ok());
  ASSERT_TRUE(ctrl->put("/open/ballast", std::string(180'000, 'b')).ok());
  const std::string big(40'000, 'x');  // larger than remaining space

  auto c = ChirpClient::connect("127.0.0.1", server_->chirp_port());
  ASSERT_TRUE(c.ok());
  auto cs = c->put("/open/over1", big);
  ASSERT_FALSE(cs.ok());
  EXPECT_EQ(cs.code(), Errc::no_space) << "chirp";

  HttpClient http("127.0.0.1", server_->http_port());
  auto hr = http.put("/open/over2", big);
  ASSERT_TRUE(hr.ok());
  EXPECT_EQ(hr->status, 507) << "http";

  auto ftp = FtpClient::connect("127.0.0.1", server_->ftp_port());
  ASSERT_TRUE(ftp.ok());
  auto fs = ftp->stor("/open/over3", big);
  ASSERT_FALSE(fs.ok());
  EXPECT_EQ(fs.code(), Errc::no_space) << "ftp";

  auto nfs = NfsClient::connect("127.0.0.1", server_->nfs_port());
  ASSERT_TRUE(nfs.ok());
  auto root = nfs->mount("/open");
  ASSERT_TRUE(root.ok());
  auto ns = nfs->write_file(*root, "over4", big);
  ASSERT_FALSE(ns.ok());
  EXPECT_EQ(ns.code(), Errc::no_space) << "nfs";

  // Every declared-size protocol rejected before storing anything. NFS
  // writes block-at-a-time with no terminal charge to roll back, so a
  // partial (admitted) prefix of over4 may remain — but never the full
  // oversized file.
  auto names = ctrl->list("/open");
  ASSERT_TRUE(names.ok());
  for (const auto& n : *names) {
    EXPECT_TRUE(n == "ballast" || n == "over4") << n;
  }
  if (auto st = ctrl->stat("/open/over4"); st.ok()) {
    EXPECT_LT(st->size, static_cast<std::int64_t>(big.size()));
  }
}

// ---------- Cold-tier staging codes (docs/hsm.md) ----------
//
// A read of cold data must surface each wire's NATIVE "media not online,
// retry" vocabulary — Chirp 455, HTTP 503, FTP 450, NFS NFSERR_JUKEBOX
// (10008) — and after a recall the same paths must serve the original
// bytes on every wire.
class ConformanceColdTierTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server::NestServerOptions o;
    o.capacity = 50'000'000;
    o.cold_backend = "mem";
    // No background worker: staging stays pending until the test recalls
    // explicitly, so the cold window is deterministic on every wire.
    o.hsm_worker = false;
    o.hsm_auto_migrate = false;
    auto s = server::NestServer::start(std::move(o));
    ASSERT_TRUE(s.ok()) << s.error().to_string();
    server_ = std::move(*s);
    server_->gsi().add_user("alice", "s");
  }
  void TearDown() override {
    if (server_) server_->stop();
  }
  std::unique_ptr<server::NestServer> server_;
};

TEST_F(ConformanceColdTierTest, ColdReadIsNativeStagingCodeEverywhere) {
  auto ctrl = ChirpClient::connect("127.0.0.1", server_->chirp_port(),
                                   "alice", "s");
  ASSERT_TRUE(ctrl.ok()) << ctrl.error().to_string();
  const std::string payload = conf_payload();
  ASSERT_TRUE(ctrl->mkdir("/arc").ok());
  // Lotless write: no live-lot guarantee keeps the file hot, so an
  // explicit owner migrate drains it immediately.
  ASSERT_TRUE(ctrl->put("/arc/frozen.bin", payload).ok());
  ASSERT_TRUE(ctrl->hsm_migrate("/arc/frozen.bin").ok());
  auto tier = ctrl->hsm_status("/arc/frozen.bin");
  ASSERT_TRUE(tier.ok());
  EXPECT_EQ(*tier, "cold");

  // Metadata stays first-class while the data is cold, on every wire.
  auto st = ctrl->stat("/arc/frozen.bin");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, static_cast<std::int64_t>(payload.size()));

  // Chirp: 455 "staging in progress" -> Errc::staging.
  auto anon = ChirpClient::connect("127.0.0.1", server_->chirp_port());
  ASSERT_TRUE(anon.ok());
  auto cr = anon->get("/arc/frozen.bin");
  ASSERT_FALSE(cr.ok());
  EXPECT_EQ(cr.error().code, Errc::staging) << "chirp";

  // HTTP: 503 Service Unavailable (retry after the recall).
  HttpClient http("127.0.0.1", server_->http_port());
  auto hr = http.get("/arc/frozen.bin");
  ASSERT_TRUE(hr.ok());
  EXPECT_EQ(hr->status, 503) << "http";

  // FTP: 450 "file unavailable, try again" — the tape-era transient
  // class, which the client maps to the retryable busy code.
  auto ftp = FtpClient::connect("127.0.0.1", server_->ftp_port());
  ASSERT_TRUE(ftp.ok());
  auto fr = ftp->retr("/arc/frozen.bin");
  ASSERT_FALSE(fr.ok());
  EXPECT_EQ(fr.error().code, Errc::busy) << "ftp (wire code 450)";

  // NFS: NFSERR_JUKEBOX, the protocol's own HSM "media being loaded"
  // code -> Errc::staging.
  auto nfs = NfsClient::connect("127.0.0.1", server_->nfs_port());
  ASSERT_TRUE(nfs.ok());
  auto root = nfs->mount("/arc");
  ASSERT_TRUE(root.ok()) << root.error().to_string();
  auto nr = nfs->read_file(*root, "frozen.bin");
  ASSERT_FALSE(nr.ok());
  EXPECT_EQ(nr.error().code, Errc::staging) << "nfs (NFSERR_JUKEBOX)";

  // Stage the file back; every wire then serves the original bytes.
  ASSERT_TRUE(ctrl->hsm_recall("/arc/frozen.bin").ok());
  auto tier2 = ctrl->hsm_status("/arc/frozen.bin");
  ASSERT_TRUE(tier2.ok());
  EXPECT_EQ(*tier2, "hot");

  auto cg = anon->get("/arc/frozen.bin");
  ASSERT_TRUE(cg.ok()) << "chirp after recall";
  EXPECT_TRUE(*cg == payload);

  auto hg = http.get("/arc/frozen.bin");
  ASSERT_TRUE(hg.ok());
  EXPECT_EQ(hg->status, 200) << "http after recall";
  EXPECT_TRUE(hg->body == payload);

  auto fg = ftp->retr("/arc/frozen.bin");
  ASSERT_TRUE(fg.ok()) << "ftp after recall";
  EXPECT_TRUE(*fg == payload);

  auto ng = nfs->read_file(*root, "frozen.bin");
  ASSERT_TRUE(ng.ok()) << "nfs after recall";
  EXPECT_TRUE(*ng == payload);
}

// Chirp-only corner of the matrix: a put that exceeds the caller's own
// lot reservation fails with the same no_space class, not a new code.
TEST_F(ConformanceSmallServerTest, LotExhaustionIsNoSpace) {
  auto c = ChirpClient::connect("127.0.0.1", server_->chirp_port(), "alice",
                                "s");
  ASSERT_TRUE(c.ok());
  auto lot = c->lot_create(30'000, 60);
  ASSERT_TRUE(lot.ok()) << lot.error().to_string();
  ASSERT_TRUE(c->put("/inlot", std::string(20'000, 'l')).ok());
  auto over = c->put("/overlot", std::string(25'000, 'l'));
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.code(), Errc::no_space);
}

}  // namespace
}  // namespace nest
